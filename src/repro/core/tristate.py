"""Tri-state weight vectors: the {0, 1, #} representation of bSOM neurons.

Each bSOM neuron holds a *tri-state* prototype vector the same length as the
binary input signature.  A component may be ``0``, ``1`` or ``#`` ("don't
care"); the ``#`` state matches either input value and contributes nothing
to the Hamming distance (section III of the paper).

Internally a tri-state vector is stored as an ``int8`` numpy array with the
sentinel value :data:`DONT_CARE` (2) for ``#``.  The FPGA BlockRAM model in
:mod:`repro.hw` stores the same information as two bit-planes (a value plane
and a care plane); :meth:`TriStateWeights.to_bitplanes` /
:meth:`TriStateWeights.from_bitplanes` convert between the two layouts and
are exercised by the hardware tests to keep software and hardware views
consistent.  :func:`tristate_update` is the one bit-parallel update rule
over those planes; the software map's training pass and the hardware
model's neighbourhood block both call it.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro._rng import SeedLike, as_generator
from repro.errors import ConfigurationError, DataError

#: Sentinel value used for the ``#`` (don't care) state in int8 arrays.
DONT_CARE: int = 2

_VALID_STATES = (0, 1, DONT_CARE)


def _validate_states(values: np.ndarray) -> np.ndarray:
    values = np.asarray(values)
    if values.size and not np.all(np.isin(np.unique(values), _VALID_STATES)):
        raise DataError(
            f"tri-state values must be 0, 1 or {DONT_CARE} (don't care); got "
            f"values {sorted(np.unique(values).tolist())}"
        )
    return values.astype(np.int8)


class TriStateWeights:
    """A matrix of tri-state neuron weight vectors.

    Parameters
    ----------
    values:
        ``(n_neurons, n_bits)`` array over ``{0, 1, DONT_CARE}``.  A single
        vector may be passed and is promoted to a one-row matrix.

    Notes
    -----
    The class is a thin, validated wrapper over the underlying ``int8``
    array; training in :mod:`repro.core.bsom` works on packed bit-planes
    of the map's raw array (:func:`tristate_update`), while tests and the
    hardware model use the richer helpers here.
    """

    def __init__(self, values: np.ndarray):
        values = _validate_states(values)
        if values.ndim == 1:
            values = values[np.newaxis, :]
        if values.ndim != 2:
            raise DataError(
                f"tri-state weights must be a 1-D or 2-D array, got shape {values.shape}"
            )
        if values.shape[1] == 0:
            raise DataError("tri-state weight vectors must have at least one bit")
        self.values = values

    @classmethod
    def from_valid(cls, values: np.ndarray) -> "TriStateWeights":
        """Wrap a 2-D ``int8`` array already known to be valid, unscanned."""
        weights = cls.__new__(cls)
        weights.values = values
        return weights

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def n_neurons(self) -> int:
        """Number of neuron rows."""
        return int(self.values.shape[0])

    @property
    def n_bits(self) -> int:
        """Length of each weight vector."""
        return int(self.values.shape[1])

    def dont_care_counts(self) -> np.ndarray:
        """Number of ``#`` components in each neuron."""
        return np.count_nonzero(self.values == DONT_CARE, axis=1)

    def dont_care_fraction(self) -> float:
        """Overall fraction of components in the ``#`` state."""
        return float(np.count_nonzero(self.values == DONT_CARE)) / float(
            self.values.size
        )

    def committed_bits(self) -> np.ndarray:
        """Boolean mask of components that are 0 or 1 (not ``#``)."""
        return self.values != DONT_CARE

    def copy(self) -> "TriStateWeights":
        """Deep copy of the weights."""
        return TriStateWeights.from_valid(self.values.copy())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TriStateWeights):
            return NotImplemented
        return self.values.shape == other.values.shape and bool(
            np.all(self.values == other.values)
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TriStateWeights(n_neurons={self.n_neurons}, n_bits={self.n_bits}, "
            f"dont_care_fraction={self.dont_care_fraction():.3f})"
        )

    # ------------------------------------------------------------------ #
    # Conversions
    # ------------------------------------------------------------------ #
    def to_bitplanes(self) -> tuple[np.ndarray, np.ndarray]:
        """Split into (value plane, care plane) -- the hardware layout.

        ``care == 0`` marks a ``#`` component; wherever ``care == 1`` the
        value plane holds the committed bit.  The value plane is zero for
        don't-care components so the two planes round-trip exactly.
        """
        care = (self.values != DONT_CARE).astype(np.uint8)
        value = np.where(care == 1, self.values, 0).astype(np.uint8)
        return value, care

    @classmethod
    def from_bitplanes(cls, value: np.ndarray, care: np.ndarray) -> "TriStateWeights":
        """Rebuild tri-state weights from (value, care) bit-planes."""
        value = np.asarray(value)
        care = np.asarray(care)
        if value.shape != care.shape:
            raise DataError(
                f"value plane shape {value.shape} does not match care plane shape "
                f"{care.shape}"
            )
        if value.size and not np.all(np.isin(np.unique(value), (0, 1))):
            raise DataError("value plane must be binary")
        if care.size and not np.all(np.isin(np.unique(care), (0, 1))):
            raise DataError("care plane must be binary")
        states = np.where(care == 1, value, DONT_CARE)
        return cls(states.astype(np.int8))

    def to_strings(self) -> list[str]:
        """Render each neuron as a string of ``0``/``1``/``#`` characters."""
        table = {0: "0", 1: "1", DONT_CARE: "#"}
        return ["".join(table[int(v)] for v in row) for row in self.values]

    @classmethod
    def from_strings(cls, rows: Iterable[str]) -> "TriStateWeights":
        """Parse neurons from strings of ``0``/``1``/``#`` characters."""
        table = {"0": 0, "1": 1, "#": DONT_CARE}
        parsed: list[list[int]] = []
        for row in rows:
            try:
                parsed.append([table[ch] for ch in row])
            except KeyError as exc:  # pragma: no cover - defensive
                raise DataError(f"invalid tri-state character {exc.args[0]!r}") from exc
        if not parsed:
            raise DataError("at least one neuron string is required")
        lengths = {len(p) for p in parsed}
        if len(lengths) != 1:
            raise DataError("all neuron strings must have the same length")
        return cls(np.array(parsed, dtype=np.int8))


def tristate_update(
    care: np.ndarray,
    value: np.ndarray,
    x: np.ndarray,
    select: np.ndarray,
    *,
    out: tuple[np.ndarray, np.ndarray],
    mismatch: np.ndarray | None = None,
) -> None:
    """Apply the tri-state rule to the selected bits of (care, value) planes.

    On a selected bit (``s`` set) a committed bit equal to the input stays,
    a committed bit that differs becomes ``#``, and a ``#`` bit commits to
    the input; unselected bits keep their state.  The selection picks the
    rule: every bit for the full rule, ``~c`` (the ``#`` bits) for the
    commit rule, and a random subset for the stochastic neighbour rule.
    The rule is written as the bits it flips::

        m = c & (v ^ x)             # committed bits that differ from x
        f = s & (~c | (v ^ x))      # the care bits that flip
        v ^= f & (x ^ m)
        c ^= f

    which needs the value plane to be zero on ``#`` bits, as every plane
    here is (:meth:`TriStateWeights.to_bitplanes`), and keeps it so.

    The planes may be ``0``/``1`` arrays, one bit per element (``s`` then
    ``0``/``1`` too), or packed ``uint64`` words.  ``x`` is the input in the
    same layout and broadcasts against the rows of the planes.  Packed
    padding bits need no mask: the input's and the value plane's padding
    is zero, so a padding bit never mismatches, whatever the care plane
    holds there, and unpacking drops it.

    The new planes are written to ``out=(care, value)`` -- the planes
    themselves for an update in place -- and nothing is allocated when
    ``mismatch`` (``m``, as a winner search has computed it) is given:
    ``select`` and ``mismatch`` are scratch and are overwritten.
    """
    if mismatch is None:
        mismatch = care & (value ^ x)
    # f = s & ~(c ^ m): on a committed bit ~c | (v ^ x) is m.
    flip = np.bitwise_xor(care, mismatch, out=mismatch)
    np.invert(flip, out=flip)
    flip = np.bitwise_and(select, flip, out=select)
    # Where f is set, m equals c, so f & (x ^ m) is f & (x ^ c).
    delta = np.bitwise_xor(x, care, out=mismatch)
    np.bitwise_and(delta, flip, out=delta)
    np.bitwise_xor(value, delta, out=out[1])
    np.bitwise_xor(care, flip, out=out[0])


def tristate_from_binary(bits: np.ndarray) -> TriStateWeights:
    """Promote plain binary vectors to tri-state weights (no ``#`` states)."""
    bits = np.asarray(bits)
    if bits.size and not np.all(np.isin(np.unique(bits), (0, 1))):
        raise DataError("binary weights must contain only zeros and ones")
    return TriStateWeights(bits.astype(np.int8))


def random_tristate(
    n_neurons: int,
    n_bits: int,
    *,
    dont_care_probability: float = 0.0,
    seed: SeedLike = None,
) -> TriStateWeights:
    """Randomly initialise tri-state weights.

    The FPGA design (section V-A) initialises every neuron with random
    binary values; ``dont_care_probability`` optionally seeds a fraction of
    components in the ``#`` state, which is useful for experiments on how
    quickly the map commits.

    Parameters
    ----------
    n_neurons, n_bits:
        Shape of the weight matrix.
    dont_care_probability:
        Probability that a component starts as ``#`` rather than a random
        bit (paper default 0).
    seed:
        Seed or generator for reproducibility.
    """
    if n_neurons <= 0:
        raise ConfigurationError(f"n_neurons must be positive, got {n_neurons}")
    if n_bits <= 0:
        raise ConfigurationError(f"n_bits must be positive, got {n_bits}")
    if not 0.0 <= dont_care_probability <= 1.0:
        raise ConfigurationError(
            f"dont_care_probability must lie in [0, 1], got {dont_care_probability}"
        )
    rng = as_generator(seed)
    values = rng.integers(0, 2, size=(n_neurons, n_bits), dtype=np.int8)
    if dont_care_probability > 0.0:
        mask = rng.random(size=values.shape) < dont_care_probability
        values = np.where(mask, np.int8(DONT_CARE), values)
    return TriStateWeights(values)
