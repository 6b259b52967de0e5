"""Reference bSOM training, kept as the oracle for the packed-plane pass.

:class:`repro.core.BinarySom` trains on packed ``uint64`` care/value planes
and writes its ``int8`` weights back once per pass.  This module is the
per-step ``int8`` training it replaced, written the obvious way:

* :func:`apply_full_rule` / :func:`apply_commit_rule` -- the tri-state
  rules as boolean-mask assignments on ``int8`` rows;
* :func:`train_one` -- one training step on a map's own state: a winner
  by masked Hamming distance (lowest index on ties), the winner's rule,
  then the neighbour rule with the stochastic draws taken from the map's
  ``_update_rng`` as ``random(size=(n_neighbours, n_bits))``, and one
  weights-version step;
* :func:`fit` -- ``SelfOrganisingMap.fit``'s epoch loop over
  :func:`train_one`.

Run them on a deep copy of a map to get the weights, weights version,
winners and random-stream position the production pass must reproduce.
"""

from __future__ import annotations

import numpy as np

from repro._rng import SeedLike, as_generator
from repro.core.bsom import BinarySom
from repro.core.som import validate_binary_matrix
from repro.core.tristate import DONT_CARE


def apply_full_rule(
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


def apply_commit_rule(rows: np.ndarray, x: np.ndarray) -> None:
    """Apply the commit-only rule to ``rows`` in place."""
    dont_care = rows == DONT_CARE
    rows[dont_care] = np.broadcast_to(x, rows.shape)[dont_care]


def train_one(
    som: BinarySom, x: np.ndarray, iteration: int, total_iterations: int
) -> int:
    """Present one validated ``int8`` pattern to ``som``; returns the winner."""
    weights = som._weights
    distances = np.count_nonzero((weights != DONT_CARE) & (weights != x), axis=1)
    winner = int(np.argmin(distances))
    radius = som.schedule.radius(iteration, total_iterations)
    members = som.topology.neighbourhood(winner, radius)
    rule = som.update_rule

    winner_row = weights[winner : winner + 1]
    if rule.winner_rule == "full":
        apply_full_rule(winner_row, x)
    else:
        apply_commit_rule(winner_row, x)

    neighbours = members[members != winner]
    if neighbours.size:
        neighbour_rows = weights[neighbours]
        if rule.neighbour_rule == "stochastic":
            grid_distances = np.array(
                [som.topology.grid_distance(winner, int(j)) for j in neighbours],
                dtype=np.float64,
            )
            probabilities = rule.neighbour_strength ** grid_distances
            select = (
                som._update_rng.random(size=neighbour_rows.shape)
                < probabilities[:, np.newaxis]
            )
            apply_full_rule(neighbour_rows, x, select)
        elif rule.neighbour_rule == "full":
            apply_full_rule(neighbour_rows, x)
        else:
            apply_commit_rule(neighbour_rows, x)
        weights[neighbours] = neighbour_rows
    som._note_weights_changed(1)
    return winner


def fit(
    som: BinarySom,
    X: np.ndarray,
    epochs: int,
    *,
    shuffle: bool = True,
    seed: SeedLike = None,
) -> np.ndarray:
    """Train ``som`` as ``fit`` does, one :func:`train_one` per pattern;
    returns every presentation's winner."""
    X = validate_binary_matrix(X, som.n_bits)
    rng = as_generator(seed)
    winners = []
    for epoch in range(epochs):
        order = rng.permutation(X.shape[0]) if shuffle else np.arange(X.shape[0])
        winners.extend(train_one(som, X[index], epoch, epochs) for index in order)
    return np.array(winners, dtype=np.int64)
