"""The tri-state rule binary Self-Organising Map (bSOM).

The bSOM (section III of the paper, after Appiah et al. [5]) takes binary
input vectors and maintains *tri-state* prototype vectors over ``{0, 1, #}``.
Matching uses the Hamming distance with ``#`` treated as a wildcard
(equation 3).  Training is competitive: the neuron with the minimum masked
Hamming distance wins, and the winner plus a shrinking neighbourhood are
updated with bit-wise tri-state rules.

Tri-state update rules
----------------------
The paper describes the update qualitatively ("tri-state rule"); the
concrete bit-level rules implemented here are reconstructed from the cited
bSOM paper and from the hardware description (one pass over the bits, no
arithmetic other than comparison), and are called out in DESIGN.md as an
ablation target:

*Full rule* (used for the winning neuron)
    ========================  =================
    current weight bit        new weight bit
    ========================  =================
    equal to the input bit    unchanged
    ``#`` (don't care)        the input bit
    opposite of the input     ``#``
    ========================  =================

    A bit that is consistently 0 (or 1) across the patterns a neuron wins
    stays committed; a bit that varies oscillates through ``#`` and spends
    its time in the wildcard state, which is exactly the "don't care"
    semantics the paper wants.

*Stochastic neighbourhood rule* (default for neighbours)
    Neurons other than the winner apply the full rule to each bit
    independently with probability ``neighbour_strength ** d`` where ``d``
    is the topological distance from the winner.  This is the binary
    counterpart of the Kohonen neighbourhood kernel: a real-valued SOM
    moves a neighbour a *fraction* of the way towards the input, and the
    only way to move a binary weight vector a fraction of the way is to
    update a random fraction of its bits.  In hardware this costs one LFSR
    bit-stream per grid distance -- the same pseudo-random machinery the
    weight-initialisation block already contains.  Without the distance
    attenuation the full rule erases the prototypes of neighbouring neurons
    on every update, which measurably destroys the map's class purity (see
    the update-rule ablation benchmark).

*Full rule* applied to every neighbour, and the *commit-only rule* (only
``#`` bits are resolved towards the input) are retained as ablation
settings via :class:`BsomUpdateRule`.

Training on bit-planes
----------------------
All rules are single-pass, bit-parallel and need no multipliers, matching
the hardware budget of the FPGA "neurons updating unit" (figure 4), and
training runs them the way that unit does: on the two weight bit-planes,
a *care* plane ``c`` (``0`` on ``#``) and a *value* plane ``v`` (``0`` on
``#`` too).  Each pass over the data packs the patterns and the planes
into ``uint64`` words (the layout :class:`~repro.core.backends.PackedBackend`
scores) and presents every pattern ``x`` in one fused step that works in
place on preallocated words, with no allocation, gather or scatter:

* the winner is the argmin over neurons of ``popcount(m)``, with the
  mismatch words ``m = c & (v ^ x)`` and their counts written to buffers
  (counted by the distance kernel's popcount, so a NumPy without
  ``bitwise_count`` trains on its lookup table);
* a selection plane ``s`` is built over the rows the win updates: all
  ones for the full rule, ``~c`` for the commit rule, and for the
  stochastic rule the draws ``random < neighbour_strength ** d``, taken
  with ``Generator.random(out=)`` (the same draws, in the same order, as
  a per-step ``int8`` update takes) and packed eight bytes at a time by
  one multiplication;
* the rule (:func:`~repro.core.tristate.tristate_update`) is applied in
  place in its flip form, reusing the winner search's ``m``::

      f = s & (~c | (v ^ x))      # the care bits that flip
      v ^= f & (x ^ m)
      c ^= f

The rows a win updates, the order its draws are taken in and each row's
probability come from one table per radius, built from the topology's
distance matrix the first time a pass runs at that radius.  The ``int8``
weights are written back once per pass.

A whole pass runs as one call to a compiled step (``bsom_train.c``, built
and cached by :mod:`repro.core.native` on the first pass) wherever that
library builds and loads: the same winner search and flip-form rule on
the same words, with each draw taken through the map's generator
(``BitGenerator.ctypes.next_double``, under the generator's lock) in the
order ``Generator.random(out=)`` takes it, so the map, its weights
version and the random stream's position are the NumPy pass's bit for
bit.  Where no library can be built or loaded, the NumPy pass above runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import NamedTuple

import numpy as np

from repro._rng import SeedLike, as_generator
from repro.core.backends import (
    PackedBackend,
    PackedOperands,
    PreparedOperandCache,
    pack_bits_to_words,
)
from repro.core.native import training_pass
from repro.core.som import SelfOrganisingMap, validate_binary_matrix
from repro.core.topology import (
    LinearTopology,
    NeighbourhoodSchedule,
    StepwiseNeighbourhoodSchedule,
    Topology,
)
from repro.core.tristate import (
    DONT_CARE,
    TriStateWeights,
    random_tristate,
    tristate_update,
)
from repro.errors import ConfigurationError

_VALID_WINNER_RULES = ("full", "commit")
#: A rule's index here is its code in the compiled pass, for either role.
_VALID_NEIGHBOUR_RULES = ("stochastic", "full", "commit")
#: The full rule's selection: every bit of a packed word.
_ALL_BITS = np.uint64(np.iinfo(np.uint64).max)
#: Read as a little-endian word, eight 0/1 bytes times this constant hold
#: their bits, first byte highest, in the top byte (``np.packbits`` order).
_GATHER_BITS = np.uint64(0x8040201008040201)
#: The distance kernel every map scores queries with.
_KERNEL = PackedBackend()
#: Compared with the int8 weights: the 0 and the 1 bits, packed together.
_ZERO_ONE = np.array([0, 1], dtype=np.int8)[:, np.newaxis, np.newaxis]


class _Neighbourhood(NamedTuple):
    """What a win at one radius updates, per winner.

    ``per_winner[w]`` is ``(span, runs, probabilities, neighbour_words)``
    for the NumPy pass.  ``span`` slices the rows from the neighbourhood's
    first member to its last, which the step updates in place; ``runs``
    slice the neighbour rows (the winner excluded) into ascending runs,
    drawn in turn so the draws follow the neighbours in row order.  Over
    the span, as ``(len(span), 1)`` columns: ``probabilities`` is
    ``neighbour_strength ** d`` on neighbour rows and ``0`` elsewhere (a
    draw there never selects), ``neighbour_words`` all ones on neighbour
    rows and zero elsewhere (the full and commit rules).

    The same neighbourhoods flattened for the compiled pass: winner
    ``w``'s neighbours are ``rows[offsets[w]:offsets[w + 1]]``, ascending,
    drawn with ``probabilities`` beside them.
    """

    per_winner: list[tuple]
    offsets: np.ndarray
    rows: np.ndarray
    probabilities: np.ndarray


@dataclass(frozen=True)
class BsomUpdateRule:
    """Configuration of the bit-level tri-state update rules.

    Attributes
    ----------
    winner_rule:
        ``"full"`` (paper behaviour) or ``"commit"`` -- rule applied to the
        winning neuron.
    neighbour_rule:
        ``"stochastic"`` (default: full rule applied to a random fraction
        ``neighbour_strength ** d`` of each neighbour's bits), ``"full"``
        or ``"commit"``.
    neighbour_strength:
        Base of the per-grid-distance attenuation used by the stochastic
        rule; 0.5 mirrors the halving-per-step kernel of the cSOM baseline.
    """

    winner_rule: str = "full"
    neighbour_rule: str = "stochastic"
    neighbour_strength: float = 0.5

    def __post_init__(self) -> None:
        if self.winner_rule not in _VALID_WINNER_RULES:
            raise ConfigurationError(
                f"winner_rule must be one of {_VALID_WINNER_RULES}, got "
                f"{self.winner_rule!r}"
            )
        if self.neighbour_rule not in _VALID_NEIGHBOUR_RULES:
            raise ConfigurationError(
                f"neighbour_rule must be one of {_VALID_NEIGHBOUR_RULES}, got "
                f"{self.neighbour_rule!r}"
            )
        if not 0.0 < self.neighbour_strength <= 1.0:
            raise ConfigurationError(
                f"neighbour_strength must lie in (0, 1], got {self.neighbour_strength}"
            )


class BinarySom(SelfOrganisingMap):
    """Tri-state binary Self-Organising Map.

    Queries are scored by masked Hamming distance over packed care/value
    words (:class:`~repro.core.backends.PackedBackend`), the layout the
    training pass updates.

    Parameters
    ----------
    n_neurons:
        Number of neurons in the competitive layer (40 in the paper).
    n_bits:
        Length of the binary input / weight vectors (768 in the paper).
    topology:
        Neuron arrangement; defaults to the FPGA's linear chain.
    schedule:
        Neighbourhood radius schedule; defaults to the paper's stepwise
        schedule with a maximum radius of 4.
    update_rule:
        Tri-state bit update rules for winner and neighbours.
    dont_care_probability:
        Fraction of weight bits initialised to ``#`` (paper default 0:
        purely random binary initialisation, as in the hardware
        weight-initialisation block).
    seed:
        Seed or generator used for weight initialisation.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.core import BinarySom
    >>> rng = np.random.default_rng(0)
    >>> X = rng.integers(0, 2, size=(100, 64))
    >>> som = BinarySom(n_neurons=8, n_bits=64, seed=1).fit(X, epochs=5)
    >>> 0 <= som.winner(X[0]) < 8
    True
    """

    def __init__(
        self,
        n_neurons: int,
        n_bits: int,
        *,
        topology: Topology | None = None,
        schedule: NeighbourhoodSchedule | None = None,
        update_rule: BsomUpdateRule | None = None,
        dont_care_probability: float = 0.0,
        seed: SeedLike = None,
    ):
        super().__init__(n_neurons, n_bits)
        self.topology = topology or LinearTopology(n_neurons)
        if self.topology.n_neurons != n_neurons:
            raise ConfigurationError(
                f"topology covers {self.topology.n_neurons} neurons but the map has "
                f"{n_neurons}"
            )
        self.schedule = schedule or StepwiseNeighbourhoodSchedule(max_radius=4)
        self.update_rule = update_rule or BsomUpdateRule()
        rng = as_generator(seed)
        self._weights = random_tristate(
            n_neurons,
            n_bits,
            dont_care_probability=dont_care_probability,
            seed=rng,
        ).values
        # Dedicated stream for the stochastic neighbourhood rule (the
        # hardware equivalent is an LFSR separate from the one used for
        # weight initialisation).
        self._update_rng = as_generator(rng.integers(0, 2**63 - 1))
        self._neighbourhood_tables: dict[int, _Neighbourhood] = {}
        self._operand_cache = PreparedOperandCache()

    # ------------------------------------------------------------------ #
    # Weights
    # ------------------------------------------------------------------ #
    @property
    def weights(self) -> TriStateWeights:
        """A copy of the tri-state weight matrix, so a holder never sees later
        training or writes behind :attr:`weights_version`.  Not scanned again:
        :meth:`set_weights` validates, and training writes valid planes back."""
        return TriStateWeights.from_valid(self._weights.copy())

    def set_weights(self, weights: TriStateWeights | np.ndarray) -> None:
        """Replace the weight matrix (used for serialisation and hardware sync)."""
        values = weights.values if isinstance(weights, TriStateWeights) else weights
        wrapped = TriStateWeights(np.asarray(values))
        if wrapped.n_neurons != self.n_neurons or wrapped.n_bits != self.n_bits:
            raise ConfigurationError(
                f"weights of shape {wrapped.values.shape} do not match a map with "
                f"{self.n_neurons} neurons of {self.n_bits} bits"
            )
        self._weights = wrapped.values.copy()
        self._note_weights_changed(1)

    # ------------------------------------------------------------------ #
    # Prepared kernel operands
    # ------------------------------------------------------------------ #
    def _operands(self) -> PackedOperands:
        """The packed care/value planes of the current weights version."""
        return self._operand_cache.operands(self._weights, self._weights_version)

    def warm_operands(self) -> None:
        """Eagerly derive and cache the planes the queries score against.

        The registry's hot-swap calls this *before* flipping shards to a
        new map, so the first micro-batch on the new weights scores against
        already-prepared operands instead of paying the ``prepare`` cost
        inside a worker's critical path.
        """
        self._operands()

    def _note_weights_changed(self, updates: int) -> None:
        """Advance the weights version by ``updates``; drop cached operands."""
        self._bump_weights_version(updates)
        self._operand_cache.invalidate()

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def distances(self, x: np.ndarray) -> np.ndarray:
        x = self._validate_input(x)
        return _KERNEL.batch_one(self._operands(), x)

    def distance_matrix(self, X: np.ndarray, *, validate: bool = True) -> np.ndarray:
        X = validate_binary_matrix(X, self.n_bits, validate=validate)
        return _KERNEL.pairwise(self._operands(), X)

    def distance_matrix_packed(self, input_words: np.ndarray) -> np.ndarray:
        """Distances for signatures already packed into ``uint64`` words.

        The serving layer packs each signature once at ``submit`` time
        (producing the cache key and these words); this entry point scores
        the packed batch against the cached bit-planes without ever
        re-materialising the unpacked bits -- the zero-copy hot path.
        """
        return _KERNEL.pairwise_packed(self._operands(), np.asarray(input_words))

    # ------------------------------------------------------------------ #
    # Training
    # ------------------------------------------------------------------ #
    def _current_radius(self, iteration: int, total_iterations: int) -> int:
        return self.schedule.radius(iteration, total_iterations)

    def _neighbourhood_table(self, radius: int) -> _Neighbourhood:
        """What a win at ``radius`` updates, per winner, built once from the
        topology's distance matrix (:class:`_Neighbourhood`)."""
        table = self._neighbourhood_tables.get(radius)
        if table is not None:
            return table
        n = self.n_neurons
        distances = self.topology.distance_matrix()
        members = distances <= radius
        neighbours = members & ~np.eye(n, dtype=bool)
        strengths = self.update_rule.neighbour_strength ** distances.astype(np.float64)
        probabilities = np.where(neighbours, strengths, 0.0)[:, :, np.newaxis]
        neighbour_words = np.where(neighbours, _ALL_BITS, np.uint64(0))[
            :, :, np.newaxis
        ]
        spans = map(
            slice,
            members.argmax(axis=1).tolist(),
            (n - members[:, ::-1].argmax(axis=1)).tolist(),
        )
        # A run starts on a neighbour row whose row above is none, and stops
        # after one whose row below is none; both come in winner order.
        starts = neighbours.copy()
        starts[:, 1:] &= ~neighbours[:, :-1]
        stops = neighbours.copy()
        stops[:, :-1] &= ~neighbours[:, 1:]
        runs = map(
            slice,
            np.nonzero(starts)[1].tolist(),
            (np.nonzero(stops)[1] + 1).tolist(),
        )
        run_counts = starts.sum(axis=1).tolist()
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(neighbours.sum(axis=1), out=offsets[1:])
        table = _Neighbourhood(
            [
                (
                    span,
                    tuple(islice(runs, count)),
                    probabilities[winner, span],
                    neighbour_words[winner, span],
                )
                for winner, (span, count) in enumerate(zip(spans, run_counts))
            ],
            offsets,
            np.nonzero(neighbours)[1].astype(np.int64),
            strengths[neighbours],
        )
        self._neighbourhood_tables[radius] = table
        return table

    def _train_pass(
        self, X: np.ndarray, order: np.ndarray, iteration: int, total_iterations: int
    ) -> np.ndarray:
        """Present ``X[order]`` on packed care/value planes (module docstring):
        in one call to the compiled pass where it loads, else in NumPy."""
        radius = self.schedule.radius(iteration, total_iterations)
        table = self._neighbourhood_table(radius)
        # planes[0] is the care plane, planes[1] the value plane.
        planes = pack_bits_to_words(self._weights == _ZERO_ONE)
        care, value = planes
        np.bitwise_or(care, value, out=care)
        patterns = pack_bits_to_words(X[order])
        native_pass = training_pass()
        if native_pass is None:
            winners = self._numpy_pass(care, value, patterns, table.per_winner)
        else:
            winners = np.empty(len(order), dtype=np.int64)
            bit_generator = self._update_rng.bit_generator
            generator = bit_generator.ctypes
            with bit_generator.lock:
                native_pass(
                    care.ctypes.data,
                    value.ctypes.data,
                    patterns.ctypes.data,
                    len(patterns),
                    self.n_neurons,
                    patterns.shape[1],
                    self.n_bits,
                    table.offsets.ctypes.data,
                    table.rows.ctypes.data,
                    table.probabilities.ctypes.data,
                    _VALID_NEIGHBOUR_RULES.index(self.update_rule.winner_rule),
                    _VALID_NEIGHBOUR_RULES.index(self.update_rule.neighbour_rule),
                    generator.next_double,
                    generator.state,
                    winners.ctypes.data,
                )
        # Back to int8 in place as value + DONT_CARE * (1 - care): a committed
        # bit is its value, a '#' bit (value 0) is DONT_CARE.
        committed, values = np.unpackbits(
            planes.view(np.uint8), axis=-1, count=self.n_bits
        )
        np.subtract(
            values + DONT_CARE,
            committed * DONT_CARE,
            out=self._weights,
            casting="unsafe",
        )
        self._note_weights_changed(len(order))
        return winners

    def _numpy_pass(
        self,
        care: np.ndarray,
        value: np.ndarray,
        patterns: np.ndarray,
        table: list[tuple],
    ) -> np.ndarray:
        """The pass in NumPy, one in-place word step per packed pattern."""
        winner_full = self.update_rule.winner_rule == "full"
        neighbour_rule = self.update_rule.neighbour_rule
        stochastic = neighbour_rule == "stochastic"
        # The step's scratch: the pattern copied to every row (operands of
        # one shape take NumPy's fast path), the winner search's mismatch
        # words and counts, and the select plane the rule reads.
        shape = care.shape
        x_rows = np.empty(shape, dtype=np.uint64)
        mismatch = np.empty(shape, dtype=np.uint64)
        word_counts = np.empty(shape, dtype=np.uint8)
        counts = np.empty(self.n_neurons, dtype=np.int64)
        select = np.empty(shape, dtype=np.uint64)
        if stochastic:
            # Each run's draws land on its rows of ``draws`` (rows never
            # drawn hold zeros).  ``np.less`` writes the chosen bits as
            # bytes; a group of eight, read as a little-endian word and
            # multiplied by _GATHER_BITS, holds its packed byte in its top
            # byte, which is copied to the select plane.
            draws = np.zeros((self.n_neurons, self.n_bits))
            chosen = np.zeros((self.n_neurons, shape[1] * 64), dtype=bool)
            chosen_bits = chosen[:, : self.n_bits]
            chosen_words = chosen.view("<u8")
            gathered = np.empty(chosen_words.shape, dtype="<u8")
            gathered_bytes = gathered.view(np.uint8)[:, 7::8]
            select_bytes = select.view(np.uint8)
            draw = self._update_rng.random
        popcount = _KERNEL.popcount
        winners = np.empty(len(patterns), dtype=np.int64)
        for step, x in enumerate(patterns):
            x_rows[...] = x
            np.bitwise_xor(value, x_rows, out=mismatch)
            np.bitwise_and(mismatch, care, out=mismatch)
            popcount(mismatch, out=word_counts)
            np.add.reduce(word_counts, axis=1, out=counts)
            winner = counts.argmin()
            winners[step] = winner
            span, runs, probabilities, neighbour_words = table[winner]
            if stochastic:
                for run in runs:
                    draw(out=draws[run])
                np.less(draws[span], probabilities, out=chosen_bits[span])
                np.multiply(chosen_words[span], _GATHER_BITS, out=gathered[span])
                select_bytes[span] = gathered_bytes[span]
            elif neighbour_rule == "full":
                select[span] = neighbour_words
            else:
                np.invert(care[span], out=select[span])
                np.bitwise_and(select[span], neighbour_words, out=select[span])
            if winner_full:
                select[winner] = _ALL_BITS
            else:
                np.invert(care[winner], out=select[winner])
            tristate_update(
                care[span],
                value[span],
                x_rows[span],
                select[span],
                mismatch=mismatch[span],
                out=(care[span], value[span]),
            )
        return winners

    # ------------------------------------------------------------------ #
    # Diagnostics
    # ------------------------------------------------------------------ #
    def dont_care_fraction(self) -> float:
        """Fraction of all weight bits currently in the ``#`` state."""
        return self.weights.dont_care_fraction()

    def neuron_usage(self, X: np.ndarray) -> np.ndarray:
        """How many samples of ``X`` each neuron wins (the paper notes that
        large maps leave some neurons unused)."""
        winners = self.winners(X)
        return np.bincount(winners, minlength=self.n_neurons).astype(np.int64)
