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

All rules are single-pass, bit-parallel and need no multipliers, matching
the hardware budget of the FPGA "neurons updating unit" (figure 4).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro._rng import SeedLike, as_generator
from repro.core.backends import (
    BackendSpec,
    DistanceBackend,
    PackedBackend,
    PreparedOperandCache,
    resolve_backend,
)
from repro.core.som import SelfOrganisingMap, validate_binary_matrix
from repro.core.topology import (
    LinearTopology,
    NeighbourhoodSchedule,
    StepwiseNeighbourhoodSchedule,
    Topology,
)
from repro.core.tristate import DONT_CARE, TriStateWeights, random_tristate
from repro.errors import ConfigurationError

_VALID_WINNER_RULES = ("full", "commit")
_VALID_NEIGHBOUR_RULES = ("stochastic", "full", "commit")


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


def _apply_full_rule(
    rows: np.ndarray, x: np.ndarray, select: np.ndarray | None = None
) -> None:
    """Apply the full tri-state rule to ``rows`` in place.

    When ``select`` is given (a boolean matrix of the same shape as
    ``rows``), only the selected bits are updated -- this is how the
    stochastic neighbourhood rule attenuates the update with grid distance.
    """
    dont_care = rows == DONT_CARE
    mismatch = ~dont_care & (rows != x[np.newaxis, :])
    if select is not None:
        dont_care &= select
        mismatch &= select
    rows[dont_care] = np.broadcast_to(x, rows.shape)[dont_care]
    rows[mismatch] = DONT_CARE


def _apply_commit_rule(rows: np.ndarray, x: np.ndarray) -> None:
    """Apply the commit-only rule to ``rows`` in place."""
    dont_care = rows == DONT_CARE
    rows[dont_care] = np.broadcast_to(x, rows.shape)[dont_care]


class BinarySom(SelfOrganisingMap):
    """Tri-state binary Self-Organising Map.

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
    backend:
        Distance backend: a name (``"gemm"``, ``"packed"``, ``"naive"``,
        ``"auto"``), a :class:`~repro.core.backends.DistanceBackend`
        instance, or ``None`` for ``"auto"``, the hybrid router that picks
        a kernel per call by batch shape.  All backends are bit-exact, so
        the choice affects speed only.

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
        backend: BackendSpec = None,
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
        self._neighbourhood_cache: dict[tuple[int, int], np.ndarray] = {}
        self._backend = resolve_backend(backend)
        # Fallback packed kernel for pre-packed (uint64 word) queries from
        # the serving layer when the main backend cannot take them
        # directly; created lazily, shares the version-keyed operand cache.
        self._fallback_packed: PackedBackend | None = None
        self._operand_cache = PreparedOperandCache()

    # ------------------------------------------------------------------ #
    # Weights
    # ------------------------------------------------------------------ #
    @property
    def weights(self) -> TriStateWeights:
        """The tri-state weight matrix (copy-free view wrapper)."""
        return TriStateWeights(self._weights)

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
        self._bump_weights_version()
        self._operand_cache.invalidate()

    # ------------------------------------------------------------------ #
    # Distance backend
    # ------------------------------------------------------------------ #
    @property
    def backend(self) -> DistanceBackend:
        """The distance backend answering this map's queries."""
        return self._backend

    def set_backend(self, backend: BackendSpec) -> None:
        """Switch distance backends (bit-exact; affects speed only).

        Prepared operands of the previous backend stay cached -- they are
        version-keyed, so switching back reuses them as long as the weights
        have not changed.
        """
        self._backend = resolve_backend(backend)

    def _operands(self, backend: DistanceBackend | None = None):
        """Version-checked prepared operands of ``backend`` (default: current)."""
        backend = backend or self._backend
        return self._operand_cache.operands(
            backend, self._weights, self._weights_version
        )

    def warm_operands(self) -> None:
        """Eagerly derive and cache every operand the serving paths need.

        The registry's hot-swap calls this *before* flipping shards to a
        new map, so the first micro-batch on the new weights scores against
        already-prepared operands instead of paying the ``prepare`` cost
        inside a worker's critical path.  Warms both the configured
        backend and, when that backend cannot take pre-packed ``uint64``
        queries, the packed fallback kernel behind
        :meth:`distance_matrix_packed`.
        """
        self._operands()
        if not hasattr(self._backend, "pairwise_packed"):
            if self._fallback_packed is None:
                self._fallback_packed = PackedBackend()
            self._operands(self._fallback_packed)

    def _note_weights_changed(self, rows: np.ndarray | None) -> None:
        """Bump the weights version; keep warm operands warm when possible."""
        old_version = self._weights_version
        new_version = self._bump_weights_version()
        if rows is None:
            self._operand_cache.invalidate()
        else:
            self._operand_cache.note_rows_changed(
                self._weights, rows, old_version, new_version
            )

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def distances(self, x: np.ndarray) -> np.ndarray:
        x = self._validate_input(x)
        return self._backend.batch_one(self._operands(), x)

    def distance_matrix(self, X: np.ndarray, *, validate: bool = True) -> np.ndarray:
        X = validate_binary_matrix(X, self.n_bits, validate=validate)
        return self._backend.pairwise(self._operands(), X)

    def distance_matrix_packed(self, input_words: np.ndarray) -> np.ndarray:
        """Distances for signatures already packed into ``uint64`` words.

        The serving layer packs each signature once at ``submit`` time
        (producing the cache key and these words); this entry point scores
        the packed batch against the cached bit-planes without ever
        re-materialising the unpacked bits -- the zero-copy hot path.
        Runs on the configured backend when it accepts packed words
        (packed, hybrid) and otherwise on a dedicated packed kernel; the
        results are bit-identical either way.
        """
        backend = self._backend
        if not hasattr(backend, "pairwise_packed"):
            if self._fallback_packed is None:
                self._fallback_packed = PackedBackend()
            backend = self._fallback_packed
        return backend.pairwise_packed(self._operands(backend), np.asarray(input_words))

    # ------------------------------------------------------------------ #
    # Training
    # ------------------------------------------------------------------ #
    def _current_radius(self, iteration: int, total_iterations: int) -> int:
        return self.schedule.radius(iteration, total_iterations)

    def _neighbourhood(self, winner: int, radius: int) -> np.ndarray:
        key = (winner, radius)
        cached = self._neighbourhood_cache.get(key)
        if cached is None:
            cached = self.topology.neighbourhood(winner, radius)
            self._neighbourhood_cache[key] = cached
        return cached

    def partial_fit(self, x: np.ndarray, iteration: int, total_iterations: int) -> int:
        """Present one pattern: find the winner and update its neighbourhood."""
        x = self._validate_input(x)
        return self._train_one(x, iteration, total_iterations)

    def _train_one(self, x: np.ndarray, iteration: int, total_iterations: int) -> int:
        # Winner search against the cached backend operands: the per-step
        # weight update below migrates the cache (patching only the touched
        # rows), so consecutive training steps never re-derive the packed
        # planes / GEMM operands from the full weight matrix.
        distances = self._backend.batch_one(self._operands(), x)
        winner = int(np.argmin(distances))
        radius = self.schedule.radius(iteration, total_iterations)
        members = self._neighbourhood(winner, radius)

        winner_row = self._weights[winner : winner + 1]
        if self.update_rule.winner_rule == "full":
            _apply_full_rule(winner_row, x)
        else:
            _apply_commit_rule(winner_row, x)

        neighbours = members[members != winner]
        if neighbours.size:
            neighbour_rows = self._weights[neighbours]
            rule = self.update_rule.neighbour_rule
            if rule == "stochastic":
                grid_distances = np.array(
                    [self.topology.grid_distance(winner, int(j)) for j in neighbours],
                    dtype=np.float64,
                )
                probabilities = self.update_rule.neighbour_strength ** grid_distances
                select = (
                    self._update_rng.random(size=neighbour_rows.shape)
                    < probabilities[:, np.newaxis]
                )
                _apply_full_rule(neighbour_rows, x, select)
            elif rule == "full":
                _apply_full_rule(neighbour_rows, x)
            else:
                _apply_commit_rule(neighbour_rows, x)
            self._weights[neighbours] = neighbour_rows
        self._note_weights_changed(members)
        return winner

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
