"""Reference implementations the fast paths in ``src/repro`` are checked against.

Test modules import these as ``oracles.<module>``: ``tests/conftest.py``
and ``benchmarks/conftest.py`` put the ``tests/`` directory on
``sys.path``, and ``scripts/check_vision.py`` does the same.
"""
