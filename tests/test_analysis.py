"""Tests for the project-native static-analysis package.

Each rule is proven against a known-bad fixture (the finding fires) and a
known-good fixture (it does not), fixtures being tiny package trees
written to ``tmp_path`` and parsed with :func:`load_project` exactly the
way ``scripts/check_static.py`` parses the real tree.  The suite ends
with the meta-test the whole suite hangs on: the live ``src/repro`` tree
has zero findings outside the committed baseline.  How long the analysis
takes is printed by ``scripts/check_static.py``, not bounded here.
"""

import textwrap
from pathlib import Path

import pytest

from repro.analysis import (
    DEFAULT_BASELINE_PATH,
    DEFAULT_RULES,
    DeterminismRule,
    ErrorTaxonomyRule,
    EventVocabularyRule,
    ExportSurfaceRule,
    Finding,
    ImportCycleRule,
    LockOrderRule,
    MetricVocabularyRule,
    ThreadHygieneRule,
    UnguardedSharedStateRule,
    diff_against_baseline,
    load_baseline,
    load_project,
    render_report,
    run_rules,
    save_baseline,
)

REPO_ROOT = Path(__file__).resolve().parents[1]


def make_project(tmp_path, files, readme=None, scripts=None, package="pkg"):
    """Write a fixture package tree and parse it like the CI gate does."""
    src = tmp_path / "src"
    for rel, content in files.items():
        path = src / package / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(content), encoding="utf-8")
    init = src / package / "__init__.py"
    if not init.exists():
        init.write_text("", encoding="utf-8")
    repo_root = None
    if readme is not None:
        (tmp_path / "README.md").write_text(
            textwrap.dedent(readme), encoding="utf-8"
        )
        repo_root = tmp_path
    if scripts:
        scripts_dir = tmp_path / "scripts"
        scripts_dir.mkdir(exist_ok=True)
        for name, content in scripts.items():
            (scripts_dir / name).write_text(
                textwrap.dedent(content), encoding="utf-8"
            )
        repo_root = tmp_path
    return load_project(src, package=package, repo_root=repo_root)


def findings_for(rule, project):
    return run_rules(project, [rule])


# --------------------------------------------------------------------- #
# lock-order
# --------------------------------------------------------------------- #


class TestLockOrder:
    def test_self_deadlock_via_helper_call(self, tmp_path):
        project = make_project(
            tmp_path,
            {
                "box.py": """
                import threading

                class Box:
                    def __init__(self):
                        self._lock = threading.Lock()

                    def outer(self):
                        with self._lock:
                            self._helper()

                    def _helper(self):
                        with self._lock:
                            pass
                """
            },
        )
        findings = findings_for(LockOrderRule(), project)
        assert len(findings) == 1
        assert "immediate deadlock" in findings[0].message
        assert "self._lock" in findings[0].message

    def test_rlock_reacquire_is_legal(self, tmp_path):
        project = make_project(
            tmp_path,
            {
                "box.py": """
                import threading

                class Box:
                    def __init__(self):
                        self._lock = threading.RLock()

                    def outer(self):
                        with self._lock:
                            self._helper()

                    def _helper(self):
                        with self._lock:
                            pass
                """
            },
        )
        assert findings_for(LockOrderRule(), project) == []

    def test_two_lock_cycle(self, tmp_path):
        project = make_project(
            tmp_path,
            {
                "box.py": """
                import threading

                class Box:
                    def __init__(self):
                        self._a = threading.Lock()
                        self._b = threading.Lock()

                    def forward(self):
                        with self._a:
                            with self._b:
                                pass

                    def backward(self):
                        with self._b:
                            with self._a:
                                pass
                """
            },
        )
        findings = findings_for(LockOrderRule(), project)
        assert len(findings) == 1
        assert "lock-order cycle" in findings[0].message

    def test_consistent_order_is_clean(self, tmp_path):
        project = make_project(
            tmp_path,
            {
                "box.py": """
                import threading

                class Box:
                    def __init__(self):
                        self._a = threading.Lock()
                        self._b = threading.Lock()

                    def one(self):
                        with self._a:
                            with self._b:
                                pass

                    def two(self):
                        with self._a:
                            with self._b:
                                pass
                """
            },
        )
        assert findings_for(LockOrderRule(), project) == []


# --------------------------------------------------------------------- #
# unguarded-shared-state
# --------------------------------------------------------------------- #


_WORKER_TEMPLATE = """
import threading

class Worker:
    def __init__(self):
        self._lock = threading.Lock()
        self._count = 0
        self._thread = None

    def start(self):
        self._thread = threading.Thread(
            target=self._run, name="worker", daemon=True
        )
        self._thread.start()

    def _run(self):
        {thread_write}

    def {reset_name}(self):
        with self._lock:
            self._count = 0

    def bump(self):
        {public_write}
"""


class TestUnguardedSharedState:
    def test_bare_cross_thread_write_flagged(self, tmp_path):
        project = make_project(
            tmp_path,
            {
                "worker.py": _WORKER_TEMPLATE.format(
                    thread_write="self._count += 1",
                    public_write="self._count += 1",
                    reset_name="reset",
                )
            },
        )
        findings = findings_for(UnguardedSharedStateRule(), project)
        assert len(findings) == 1
        assert "Worker._count" in findings[0].message
        assert "self._lock" in findings[0].message

    def test_all_writes_locked_is_clean(self, tmp_path):
        project = make_project(
            tmp_path,
            {
                "worker.py": _WORKER_TEMPLATE.format(
                    thread_write="with self._lock:\n            self._count += 1",
                    public_write="with self._lock:\n            self._count += 1",
                    reset_name="reset",
                )
            },
        )
        assert findings_for(UnguardedSharedStateRule(), project) == []

    def test_single_sided_bare_write_is_clean(self, tmp_path):
        # Written bare only on the thread side, with no write from the
        # public surface at all: no cross-thread contention to flag.
        project = make_project(
            tmp_path,
            {
                "worker.py": _WORKER_TEMPLATE.format(
                    thread_write="self._count += 1",
                    public_write="pass",
                    reset_name="_reset",
                )
            },
        )
        assert findings_for(UnguardedSharedStateRule(), project) == []


# --------------------------------------------------------------------- #
# thread-hygiene
# --------------------------------------------------------------------- #


class TestThreadHygiene:
    def test_anonymous_nondaemon_thread_and_bare_join(self, tmp_path):
        project = make_project(
            tmp_path,
            {
                "runner.py": """
                import threading

                def run(fn):
                    thread = threading.Thread(target=fn)
                    thread.start()
                    thread.join()
                """
            },
        )
        messages = [f.message for f in findings_for(ThreadHygieneRule(), project)]
        assert len(messages) == 3
        assert any("without name=" in m for m in messages)
        assert any("no daemon=" in m for m in messages)
        assert any("join() without a timeout" in m for m in messages)

    def test_named_daemon_thread_with_bounded_join(self, tmp_path):
        project = make_project(
            tmp_path,
            {
                "runner.py": """
                import threading

                def run(fn):
                    thread = threading.Thread(target=fn, name="r", daemon=True)
                    thread.start()
                    thread.join(timeout=5.0)
                """
            },
        )
        assert findings_for(ThreadHygieneRule(), project) == []


# --------------------------------------------------------------------- #
# determinism
# --------------------------------------------------------------------- #


class TestDeterminism:
    def test_global_rng_flagged_everywhere(self, tmp_path):
        project = make_project(
            tmp_path,
            {
                "core/noise.py": """
                import random
                import numpy as np

                def jitter():
                    return random.random() + np.random.rand()
                """
            },
        )
        messages = [f.message for f in findings_for(DeterminismRule(), project)]
        assert len(messages) == 2
        assert any("random.random()" in m for m in messages)
        assert any("np.random.rand()" in m for m in messages)

    def test_seeded_generators_sanctioned(self, tmp_path):
        project = make_project(
            tmp_path,
            {
                "core/noise.py": """
                import random
                import numpy as np

                def jitter(seed):
                    rng = np.random.default_rng(seed)
                    r = random.Random(seed)
                    return rng.random() + r.random()
                """
            },
        )
        assert findings_for(DeterminismRule(), project) == []

    def test_wall_clock_banned_only_in_serve_and_obs(self, tmp_path):
        source = """
        import time

        def stamp():
            return time.time()
        """
        project = make_project(
            tmp_path,
            {"serve/handler.py": source, "core/handler.py": source},
        )
        findings = findings_for(DeterminismRule(), project)
        assert len(findings) == 1
        assert findings[0].path.endswith("serve/handler.py")
        assert "wall-clock read" in findings[0].message

    def test_monotonic_clock_is_clean(self, tmp_path):
        project = make_project(
            tmp_path,
            {
                "serve/handler.py": """
                import time

                def stamp():
                    return time.monotonic(), time.perf_counter()
                """
            },
        )
        assert findings_for(DeterminismRule(), project) == []


# --------------------------------------------------------------------- #
# metric-vocabulary
# --------------------------------------------------------------------- #


class TestMetricVocabulary:
    def test_grammar_and_suffix_violations(self, tmp_path):
        project = make_project(
            tmp_path,
            {
                "metrics.py": """
                def build(reg):
                    reg.counter("serve_hits")
                    reg.counter("serveBad_total")
                    reg.histogram("serve_latency_ms")
                    reg.gauge("serve_depth_total")
                """
            },
        )
        messages = [
            f.message for f in findings_for(MetricVocabularyRule(), project)
        ]
        assert any(
            "'serve_hits'" in m and "_total" in m for m in messages
        )
        assert any("naming grammar" in m for m in messages)
        assert any("_seconds" in m for m in messages)
        assert any("must not use the cumulative" in m for m in messages)

    def test_duplicate_registration_sites(self, tmp_path):
        project = make_project(
            tmp_path,
            {
                "a.py": 'def b(reg):\n    reg.counter("serve_x_total")\n',
                "b.py": 'def b(reg):\n    reg.counter("serve_x_total")\n',
            },
        )
        messages = [
            f.message for f in findings_for(MetricVocabularyRule(), project)
        ]
        assert any("2 call sites" in m for m in messages)

    def test_doc_sync_both_directions(self, tmp_path):
        project = make_project(
            tmp_path,
            {"m.py": 'def b(reg):\n    reg.counter("serve_real_total")\n'},
            readme="""
            | metric | meaning |
            |---|---|
            | `serve_ghost_total` | renamed away |
            """,
        )
        messages = [
            f.message for f in findings_for(MetricVocabularyRule(), project)
        ]
        assert any(
            "'serve_ghost_total'" in m and "no registration" in m
            for m in messages
        )
        assert any(
            "'serve_real_total'" in m and "absent from the README" in m
            for m in messages
        )

    def test_synced_vocabulary_is_clean(self, tmp_path):
        project = make_project(
            tmp_path,
            {
                "m.py": (
                    "def b(reg):\n"
                    '    reg.counter("serve_real_total")\n'
                    '    reg.histogram("serve_wait_seconds")\n'
                )
            },
            readme="""
            Metrics: `serve_real_total` and `serve_wait_seconds` (the
            exporter also renders `serve_wait_seconds_bucket`).
            """,
        )
        assert findings_for(MetricVocabularyRule(), project) == []

    def test_wrapper_helper_registrations_are_seen(self, tmp_path):
        # Registration through a kind-named wrapper helper counts: the
        # literal name at the wrapper call site is the registration.
        project = make_project(
            tmp_path,
            {
                "m.py": (
                    "class M:\n"
                    "    def build(self):\n"
                    '        self._shadow_counter("serve_mirrors_total")\n'
                )
            },
            readme="Documented: `serve_mirrors_total`.\n",
        )
        assert findings_for(MetricVocabularyRule(), project) == []


# --------------------------------------------------------------------- #
# event-vocabulary
# --------------------------------------------------------------------- #


class TestEventVocabulary:
    def test_bad_case_and_undocumented_kinds(self, tmp_path):
        project = make_project(
            tmp_path,
            {
                "events.py": """
                def fire(obs):
                    obs.emit("BadKind")
                    obs.emit("quiet_event")
                """
            },
            readme="No events documented here.\n",
        )
        messages = [
            f.message for f in findings_for(EventVocabularyRule(), project)
        ]
        assert any("not lower_snake_case" in m for m in messages)
        assert any(
            "'quiet_event'" in m and "not documented" in m for m in messages
        )

    def test_documented_snake_case_kind_is_clean(self, tmp_path):
        project = make_project(
            tmp_path,
            {"events.py": 'def fire(obs):\n    obs.emit("model_swap")\n'},
            readme="Emits a `model_swap` event on every flip.\n",
        )
        assert findings_for(EventVocabularyRule(), project) == []


# --------------------------------------------------------------------- #
# error-taxonomy
# --------------------------------------------------------------------- #


class TestErrorTaxonomy:
    def test_builtin_raise_flagged(self, tmp_path):
        project = make_project(
            tmp_path,
            {
                "mod.py": """
                def check(x):
                    if x < 0:
                        raise ValueError("negative")
                """
            },
        )
        findings = findings_for(ErrorTaxonomyRule(), project)
        assert len(findings) == 1
        assert "builtin ValueError" in findings[0].message

    def test_protocol_exemptions(self, tmp_path):
        project = make_project(
            tmp_path,
            {
                "mod.py": """
                class Bag:
                    def __getitem__(self, key):
                        raise KeyError(key)

                    def __getattr__(self, name):
                        raise AttributeError(name)

                def todo():
                    raise NotImplementedError
                """
            },
        )
        assert findings_for(ErrorTaxonomyRule(), project) == []

    def test_project_exceptions_pass(self, tmp_path):
        project = make_project(
            tmp_path,
            {
                "mod.py": """
                from pkg.errors import ConfigurationError

                def check(x):
                    if x < 0:
                        raise ConfigurationError("negative")
                """,
                "errors.py": "class ConfigurationError(Exception):\n    pass\n",
            },
        )
        assert findings_for(ErrorTaxonomyRule(), project) == []


# --------------------------------------------------------------------- #
# export-surface
# --------------------------------------------------------------------- #


class TestExportSurface:
    def test_phantom_and_duplicate_entries(self, tmp_path):
        project = make_project(
            tmp_path,
            {
                "mod.py": """
                __all__ = ["real", "ghost", "real"]

                def real():
                    pass
                """
            },
        )
        messages = [
            f.message for f in findings_for(ExportSurfaceRule(), project)
        ]
        assert any("'ghost'" in m and "binds no such name" in m for m in messages)
        assert any("more than once" in m for m in messages)

    def test_package_init_must_list_public_reexports(self, tmp_path):
        project = make_project(
            tmp_path,
            {
                "sub/__init__.py": """
                from pkg.sub.impl import exported, forgotten

                __all__ = ["exported"]
                """,
                "sub/impl.py": (
                    "def exported():\n    pass\n\n"
                    "def forgotten():\n    pass\n"
                ),
            },
        )
        findings = findings_for(ExportSurfaceRule(), project)
        assert len(findings) == 1
        assert "'forgotten'" in findings[0].message
        assert "missing from __all__" in findings[0].message

    def test_lazy_export_table_keys_resolve(self, tmp_path):
        project = make_project(
            tmp_path,
            {
                "sub/__init__.py": """
                _LAZY_EXPORTS = {"deferred": "pkg.sub.impl"}

                __all__ = ["deferred"]

                def __getattr__(name):
                    raise AttributeError(name)
                """,
                "sub/impl.py": "def deferred():\n    pass\n",
            },
        )
        assert findings_for(ExportSurfaceRule(), project) == []

    def test_stdlib_imports_are_not_forced_into_all(self, tmp_path):
        project = make_project(
            tmp_path,
            {
                "sub/__init__.py": """
                from typing import Optional

                from pkg.sub.impl import exported

                __all__ = ["exported"]
                """,
                "sub/impl.py": "def exported():\n    pass\n",
            },
        )
        assert findings_for(ExportSurfaceRule(), project) == []


# --------------------------------------------------------------------- #
# import-cycle
# --------------------------------------------------------------------- #


class TestImportCycle:
    def test_two_module_cycle_detected(self, tmp_path):
        project = make_project(
            tmp_path,
            {
                "a.py": "from pkg import b\n",
                "b.py": "from pkg import a\n",
            },
        )
        findings = findings_for(ImportCycleRule(), project)
        assert len(findings) == 1
        assert "circular imports among" in findings[0].message
        assert "pkg.a" in findings[0].message
        assert "pkg.b" in findings[0].message

    def test_type_checking_guard_breaks_cycle(self, tmp_path):
        project = make_project(
            tmp_path,
            {
                "a.py": """
                from typing import TYPE_CHECKING

                if TYPE_CHECKING:
                    from pkg import b
                """,
                "b.py": "from pkg import a\n",
            },
        )
        assert findings_for(ImportCycleRule(), project) == []

    def test_function_local_import_breaks_cycle(self, tmp_path):
        project = make_project(
            tmp_path,
            {
                "a.py": """
                def late():
                    from pkg import b
                    return b
                """,
                "b.py": "from pkg import a\n",
            },
        )
        assert findings_for(ImportCycleRule(), project) == []


# --------------------------------------------------------------------- #
# pragma suppression
# --------------------------------------------------------------------- #


class TestPragmaSuppression:
    def test_inline_pragma_silences_named_rule(self, tmp_path):
        project = make_project(
            tmp_path,
            {
                "mod.py": """
                import random

                def jitter():
                    return random.random()  # repro: allow[determinism]
                """
            },
        )
        assert findings_for(DeterminismRule(), project) == []

    def test_standalone_pragma_line_above(self, tmp_path):
        project = make_project(
            tmp_path,
            {
                "mod.py": """
                import random

                def jitter():
                    # repro: allow[determinism]
                    return random.random()
                """
            },
        )
        assert findings_for(DeterminismRule(), project) == []

    def test_pragma_for_other_rule_does_not_silence(self, tmp_path):
        project = make_project(
            tmp_path,
            {
                "mod.py": """
                import random

                def jitter():
                    return random.random()  # repro: allow[thread-hygiene]
                """
            },
        )
        assert len(findings_for(DeterminismRule(), project)) == 1


# --------------------------------------------------------------------- #
# baseline semantics
# --------------------------------------------------------------------- #


class TestBaseline:
    def _finding(self, message, line=3):
        return Finding(
            rule="determinism", path="src/pkg/mod.py", line=line, message=message
        )

    def test_round_trip_and_line_independence(self, tmp_path):
        path = tmp_path / "baseline.json"
        save_baseline([self._finding("old issue", line=3)], path)
        baseline = load_baseline(path)
        # Same finding on a different line is still baselined: identity
        # excludes the line number on purpose.
        diff = diff_against_baseline(
            [self._finding("old issue", line=99)], baseline
        )
        assert diff.new == ()
        assert len(diff.known) == 1
        assert diff.stale == ()

    def test_new_finding_fails_and_fixed_goes_stale(self, tmp_path):
        path = tmp_path / "baseline.json"
        save_baseline([self._finding("old issue")], path)
        diff = diff_against_baseline(
            [self._finding("brand new issue")], load_baseline(path)
        )
        assert len(diff.new) == 1
        assert diff.new[0].message == "brand new issue"
        assert len(diff.stale) == 1
        assert "old issue" in diff.stale[0]

    def test_missing_baseline_file_means_empty(self, tmp_path):
        assert load_baseline(tmp_path / "absent.json") == set()


# --------------------------------------------------------------------- #
# the live tree
# --------------------------------------------------------------------- #


class TestLiveTree:
    def test_no_unbaselined_findings(self):
        project = load_project(
            REPO_ROOT / "src", package="repro", repo_root=REPO_ROOT
        )
        findings = run_rules(project, DEFAULT_RULES)
        diff = diff_against_baseline(findings, load_baseline())
        assert not diff.new, "unbaselined findings:\n" + render_report(diff.new)

    def test_committed_baseline_has_no_stale_entries(self):
        project = load_project(
            REPO_ROOT / "src", package="repro", repo_root=REPO_ROOT
        )
        findings = run_rules(project, DEFAULT_RULES)
        diff = diff_against_baseline(findings, load_baseline())
        assert diff.stale == (), (
            "stale baseline entries (run scripts/check_static.py "
            f"--update-baseline): {diff.stale}"
        )

    def test_baseline_file_is_committed(self):
        assert DEFAULT_BASELINE_PATH.exists()
