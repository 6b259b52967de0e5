"""Unit tests for model serialisation (codec-based format v2 + v1 compat)."""

import json
import zipfile

import numpy as np
import pytest

from repro import api
from repro.core import (
    BinarySom,
    DeltaSnapshot,
    KohonenSom,
    LossySerializationWarning,
    ModelSnapshot,
    SomClassifier,
    load_delta,
    load_model,
    load_snapshot,
    save_delta,
    save_model,
    snapshot_model,
)
from repro.core.backends import pack_bits_to_words
from repro.core.bsom import BsomUpdateRule
from repro.core.topology import (
    ConstantNeighbourhoodSchedule,
    Grid2DTopology,
    LinearTopology,
    NeighbourhoodSchedule,
    RingTopology,
    StepwiseNeighbourhoodSchedule,
)
from repro.errors import DataError, SnapshotCorruptionError


class TestSaveLoadMaps:
    def test_bsom_roundtrip(self, tmp_path, cluster_data):
        X, _ = cluster_data
        som = BinarySom(8, X.shape[1], seed=0).fit(X, epochs=2, seed=1)
        path = save_model(som, tmp_path / "bsom.npz")
        loaded = load_model(path)
        assert isinstance(loaded, BinarySom)
        assert loaded.weights == som.weights
        assert loaded.n_neurons == som.n_neurons
        x = X[0]
        assert loaded.winner(x) == som.winner(x)

    def test_csom_roundtrip(self, tmp_path, cluster_data):
        X, _ = cluster_data
        som = KohonenSom(8, X.shape[1], seed=0).fit(X, epochs=2, seed=1)
        path = save_model(som, tmp_path / "csom.npz")
        loaded = load_model(path)
        assert isinstance(loaded, KohonenSom)
        assert np.allclose(loaded.weights, som.weights)

    def test_update_rule_preserved(self, tmp_path):
        rule = BsomUpdateRule(winner_rule="full", neighbour_rule="commit", neighbour_strength=0.25)
        som = BinarySom(4, 16, seed=0, update_rule=rule)
        loaded = load_model(save_model(som, tmp_path / "m.npz"))
        assert loaded.update_rule == rule

    def test_topology_kinds_roundtrip(self, tmp_path):
        for topology in (RingTopology(6), Grid2DTopology(2, 3)):
            som = BinarySom(6, 16, seed=0, topology=topology)
            loaded = load_model(save_model(som, tmp_path / f"{type(topology).__name__}.npz"))
            assert type(loaded.topology) is type(topology)

    def test_suffix_added_automatically(self, tmp_path):
        som = BinarySom(4, 8, seed=0)
        path = save_model(som, tmp_path / "model")
        assert path.suffix == ".npz"
        assert path.exists()

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(DataError):
            load_model(tmp_path / "missing.npz")


class TestSaveLoadClassifier:
    def test_classifier_roundtrip_preserves_predictions(self, tmp_path, cluster_data):
        X, y = cluster_data
        classifier = SomClassifier(
            BinarySom(16, X.shape[1], seed=0), rejection_percentile=99.0
        ).fit(X, y, epochs=4, seed=1)
        path = save_model(classifier, tmp_path / "clf.npz")
        loaded = load_model(path)
        assert isinstance(loaded, SomClassifier)
        assert loaded.rejection_threshold == pytest.approx(classifier.rejection_threshold)
        assert np.array_equal(loaded.predict(X), classifier.predict(X))

    def test_unfitted_classifier_roundtrip(self, tmp_path):
        classifier = SomClassifier(BinarySom(4, 8, seed=0))
        loaded = load_model(save_model(classifier, tmp_path / "raw.npz"))
        assert isinstance(loaded, SomClassifier)
        assert loaded.labelling is None


# --------------------------------------------------------------------- #
# Format v2: weights-version persistence (the PR-2 regression)
# --------------------------------------------------------------------- #
class TestBackendAndVersionPersistence:
    def test_packed_backend_and_version_survive_roundtrip(self, tmp_path, cluster_data):
        X, y = cluster_data
        classifier = SomClassifier(BinarySom(16, X.shape[1], seed=0)).fit(
            X, y, epochs=4, seed=1
        )
        version = classifier.som.weights_version
        assert version > 0  # training bumped it

        path = save_model(classifier, tmp_path / "clf.npz")
        assert "backend" not in _read_header(path)
        loaded = load_model(path)
        assert loaded.som.weights_version == version
        np.testing.assert_array_equal(loaded.predict(X), classifier.predict(X))

    def test_loaded_operand_cache_keys_match_restored_version(self, tmp_path, cluster_data):
        # The restored counter keys freshly-prepared operands, so queries
        # right after load() warm the cache at the persisted version and
        # later queries reuse it rather than re-preparing from scratch.
        X, y = cluster_data
        classifier = SomClassifier(BinarySom(16, X.shape[1], seed=0)).fit(
            X, y, epochs=2, seed=1
        )
        loaded = load_model(save_model(classifier, tmp_path / "clf.npz"))
        loaded.predict(X[:4])
        cache = loaded.som._operand_cache
        assert cache.cached_version == classifier.som.weights_version
        operands = loaded.som._operands()
        loaded.predict(X[:4])  # no weight change: same entry, same version
        assert cache.cached_version == classifier.som.weights_version
        assert loaded.som._operands() is operands

    def test_snapshot_records_weights_version(self, cluster_data):
        X, y = cluster_data
        classifier = SomClassifier(BinarySom(8, X.shape[1], seed=0)).fit(
            X, y, epochs=1, seed=1
        )
        snapshot = ModelSnapshot.of(classifier)
        assert snapshot.weights_version == classifier.som.weights_version
        assert snapshot.is_fitted


# --------------------------------------------------------------------- #
# Round-trips across every topology kind and schedule
# --------------------------------------------------------------------- #
class TestTopologyScheduleMatrix:
    TOPOLOGIES = [
        lambda: LinearTopology(6),
        lambda: RingTopology(6),
        lambda: Grid2DTopology(2, 3),
    ]
    SCHEDULES = [
        lambda: StepwiseNeighbourhoodSchedule(max_radius=3, min_radius=1),
        lambda: ConstantNeighbourhoodSchedule(radius=2),
    ]

    @pytest.mark.parametrize("topology_index", range(3))
    @pytest.mark.parametrize("schedule_index", range(2))
    def test_bsom_roundtrip_matrix(self, tmp_path, topology_index, schedule_index):
        topology = self.TOPOLOGIES[topology_index]()
        schedule = self.SCHEDULES[schedule_index]()
        som = BinarySom(6, 16, seed=0, topology=topology, schedule=schedule)
        loaded = load_model(save_model(som, tmp_path / "m.npz"))
        assert type(loaded.topology) is type(topology)
        assert type(loaded.schedule) is type(schedule)
        for iteration in range(4):
            assert loaded.schedule.radius(iteration, 4) == schedule.radius(iteration, 4)
        for a in range(6):
            for b in range(6):
                assert loaded.topology.grid_distance(a, b) == topology.grid_distance(a, b)

    @pytest.mark.parametrize("topology_index", range(3))
    def test_csom_roundtrip_matrix(self, tmp_path, topology_index):
        topology = self.TOPOLOGIES[topology_index]()
        som = KohonenSom(6, 16, seed=0, topology=topology)
        loaded = load_model(save_model(som, tmp_path / "m.npz"))
        assert type(loaded.topology) is type(topology)
        np.testing.assert_allclose(loaded.weights, som.weights)

    def test_custom_schedule_collapse_warns(self, tmp_path):
        class SawtoothSchedule(NeighbourhoodSchedule):
            def radius(self, iteration, total_iterations):
                return 2 + (iteration % 2)

        som = BinarySom(4, 16, seed=0, schedule=SawtoothSchedule())
        with pytest.warns(LossySerializationWarning, match="SawtoothSchedule"):
            path = save_model(som, tmp_path / "lossy.npz")
        loaded = load_model(path)
        # Collapsed to the iteration-0 radius, held constant.
        assert isinstance(loaded.schedule, StepwiseNeighbourhoodSchedule)
        assert loaded.schedule.max_radius == loaded.schedule.min_radius == 2

    def test_registered_schedules_do_not_warn(self, tmp_path, recwarn):
        som = BinarySom(4, 16, seed=0, schedule=ConstantNeighbourhoodSchedule(1))
        save_model(som, tmp_path / "ok.npz")
        assert not [w for w in recwarn if w.category is LossySerializationWarning]


# --------------------------------------------------------------------- #
# Legacy format-v1 archives stay loadable
# --------------------------------------------------------------------- #
def _read_header(path):
    with np.load(path) as archive:
        return json.loads(archive["header"].tobytes().decode("utf-8"))


def _write_v1_archive(path, classifier):
    """Replicate the pre-codec v1 writer byte layout."""
    som = classifier.som
    header = {
        "format_version": 1,
        "model": "SomClassifier",
        "rejection_percentile": classifier.rejection_percentile,
        "rejection_margin": classifier.rejection_margin,
        "rejection_threshold": classifier.rejection_threshold,
        "som": "BinarySom",
        "n_neurons": som.n_neurons,
        "n_bits": som.n_bits,
        "topology": {"kind": "linear", "n_neurons": som.n_neurons},
        "schedule": {"kind": "stepwise", "max_radius": 4, "min_radius": 1},
        "update_rule": {
            "winner_rule": som.update_rule.winner_rule,
            "neighbour_rule": som.update_rule.neighbour_rule,
            "neighbour_strength": som.update_rule.neighbour_strength,
        },
    }
    arrays = {
        "weights": som.weights.values,
        "node_labels": classifier.labelling.node_labels,
        "win_frequencies": classifier.labelling.win_frequencies,
        "labels": classifier.labelling.labels,
        "header": np.frombuffer(json.dumps(header).encode("utf-8"), dtype=np.uint8),
    }
    np.savez_compressed(path, **arrays)
    return path


class TestV1Compatibility:
    def test_v1_classifier_archive_loads(self, tmp_path, cluster_data):
        X, y = cluster_data
        classifier = SomClassifier(
            BinarySom(16, X.shape[1], seed=0), rejection_percentile=99.0
        ).fit(X, y, epochs=4, seed=1)
        path = _write_v1_archive(tmp_path / "legacy.npz", classifier)
        loaded = load_model(path)
        assert isinstance(loaded, SomClassifier)
        np.testing.assert_array_equal(loaded.predict(X), classifier.predict(X))
        assert loaded.rejection_threshold == pytest.approx(
            classifier.rejection_threshold
        )

    def test_v1_snapshot_has_no_backend_or_version(self, tmp_path, cluster_data):
        X, y = cluster_data
        classifier = SomClassifier(BinarySom(8, X.shape[1], seed=0)).fit(
            X, y, epochs=1, seed=1
        )
        path = _write_v1_archive(tmp_path / "legacy.npz", classifier)
        snapshot = load_snapshot(path)
        assert snapshot.format_version == 1
        assert not hasattr(snapshot, "backend")
        assert snapshot.weights_version is None

    def test_unsupported_version_rejected(self, tmp_path):
        header = {"format_version": 99}
        np.savez_compressed(
            tmp_path / "future.npz",
            header=np.frombuffer(json.dumps(header).encode("utf-8"), dtype=np.uint8),
        )
        with pytest.raises(DataError, match="format version"):
            load_model(tmp_path / "future.npz")


# --------------------------------------------------------------------- #
# Archives that name a distance backend still load, and answer the same
# --------------------------------------------------------------------- #
def _name_backend(path, backend):
    """Rewrite an archive's header as the v2 writer did while maps had
    selectable kernels: with a ``"backend"`` field (the recorded
    checksums cover the arrays, not the header)."""
    with np.load(path) as archive:
        arrays = {name: archive[name] for name in archive.files}
    header = json.loads(arrays["header"].tobytes().decode("utf-8"))
    header["backend"] = backend
    arrays["header"] = np.frombuffer(json.dumps(header).encode("utf-8"), dtype=np.uint8)
    np.savez_compressed(path, **arrays)
    return path


class TestLegacyArchives:
    def test_archives_naming_any_backend_answer_identically(self, tmp_path, cluster_data):
        X, y = cluster_data
        classifier = SomClassifier(
            BinarySom(16, X.shape[1], seed=0), rejection_percentile=90.0
        ).fit(X, y, epochs=4, seed=1)
        words = pack_bits_to_words(X.astype(np.uint8))
        expected = classifier.predict_batch(X)
        assert expected.rejected.any() and not expected.rejected.all()
        paths = [_write_v1_archive(tmp_path / "v1.npz", classifier)] + [
            _name_backend(save_model(classifier, tmp_path / f"v2-{name}.npz"), name)
            for name in ("gemm", "hybrid", "naive", "packed")
        ]
        for path in paths:
            for loaded in (load_model(path), api.load(path).to_classifier()):
                for got in (loaded.predict_batch(X), loaded.predict_batch_packed(words)):
                    for field in ("labels", "neurons", "distances", "rejected", "confidences"):
                        np.testing.assert_array_equal(
                            getattr(got, field), getattr(expected, field),
                            err_msg=f"{path.name}: {field}",
                        )

    def test_a_delta_naming_a_backend_applies(self, tmp_path, cluster_data):
        X, y = cluster_data
        classifier = SomClassifier(BinarySom(8, X.shape[1], seed=0)).fit(
            X, y, epochs=1, seed=1
        )
        base = snapshot_model(classifier)
        classifier.som.partial_fit(X[0], 0, 1)
        current = snapshot_model(classifier)
        path = save_delta(DeltaSnapshot.between(base, current), tmp_path / "d.npz")
        applied = load_delta(_name_backend(path, "gemm")).apply(base)
        np.testing.assert_array_equal(applied.weights, current.weights)
        np.testing.assert_array_equal(
            applied.to_classifier().predict(X), classifier.predict(X)
        )


# --------------------------------------------------------------------- #
# The snapshot itself
# --------------------------------------------------------------------- #
class TestModelSnapshot:
    def test_snapshot_is_immutable_and_decoupled(self, cluster_data):
        X, y = cluster_data
        classifier = SomClassifier(BinarySom(8, X.shape[1], seed=0)).fit(
            X, y, epochs=1, seed=1
        )
        snapshot = ModelSnapshot.of(classifier)
        with pytest.raises(ValueError):
            snapshot.weights[0, 0] = 1  # read-only view
        frozen = snapshot.weights.copy()
        classifier.som.partial_fit(X[0], 0, 1)  # keep training the live map
        np.testing.assert_array_equal(snapshot.weights, frozen)

    def test_snapshot_passthrough_and_metadata_merge(self, cluster_data):
        X, y = cluster_data
        classifier = SomClassifier(BinarySom(8, X.shape[1], seed=0)).fit(
            X, y, epochs=1, seed=1
        )
        snapshot = snapshot_model(classifier, metadata={"site": "hall"})
        assert snapshot_model(snapshot) is snapshot
        merged = snapshot_model(snapshot, metadata={"camera": "0"})
        assert merged.metadata == {"site": "hall", "camera": "0"}

    def test_metadata_roundtrips_through_archive(self, tmp_path, cluster_data):
        X, y = cluster_data
        classifier = SomClassifier(BinarySom(8, X.shape[1], seed=0)).fit(
            X, y, epochs=1, seed=1
        )
        snapshot = snapshot_model(classifier, metadata={"site": "hall"})
        loaded = load_snapshot(save_model(snapshot, tmp_path / "m.npz"))
        assert loaded.metadata == {"site": "hall"}

    def test_bare_map_snapshot_refuses_to_classify(self):
        snapshot = ModelSnapshot.of(BinarySom(4, 8, seed=0))
        with pytest.raises(DataError, match="bare"):
            snapshot.to_classifier()

    def test_to_model_returns_matching_types(self, tmp_path, cluster_data):
        X, y = cluster_data
        assert isinstance(ModelSnapshot.of(BinarySom(4, X.shape[1], seed=0)).to_model(), BinarySom)
        assert isinstance(ModelSnapshot.of(KohonenSom(4, X.shape[1], seed=0)).to_model(), KohonenSom)
        fitted = SomClassifier(BinarySom(8, X.shape[1], seed=0)).fit(X, y, epochs=1, seed=1)
        rebuilt = ModelSnapshot.of(fitted).to_model()
        assert isinstance(rebuilt, SomClassifier)
        np.testing.assert_array_equal(rebuilt.predict(X), fitted.predict(X))


# --------------------------------------------------------------------- #
# Crash-safe archives: atomic writes, checksums, fail-closed loads
# --------------------------------------------------------------------- #
def _fitted_snapshot(cluster_data, seed=0):
    X, y = cluster_data
    classifier = SomClassifier(BinarySom(8, X.shape[1], seed=seed)).fit(
        X, y, epochs=2, seed=1
    )
    return ModelSnapshot.of(classifier)


def _flip_member_byte(path, member, offset=8):
    """Flip one bit inside ``member``'s compressed data region."""
    raw = bytearray(path.read_bytes())
    with zipfile.ZipFile(path) as archive:
        info = next(i for i in archive.infolist() if member in i.filename)
    base = info.header_offset
    name_len = int.from_bytes(raw[base + 26 : base + 28], "little")
    extra_len = int.from_bytes(raw[base + 28 : base + 30], "little")
    data_start = base + 30 + name_len + extra_len
    raw[data_start + offset] ^= 0x40
    path.write_bytes(bytes(raw))


class TestCrashSafeArchives:
    def test_save_is_atomic_and_leaves_no_temp_files(self, tmp_path, cluster_data):
        snapshot = _fitted_snapshot(cluster_data)
        save_model(snapshot, tmp_path / "m.npz")
        leftovers = [p.name for p in tmp_path.iterdir() if p.name != "m.npz"]
        assert leftovers == []

    def test_header_records_a_checksum_per_array(self, tmp_path, cluster_data):
        snapshot = _fitted_snapshot(cluster_data)
        path = save_model(snapshot, tmp_path / "m.npz")
        with np.load(path) as archive:
            header = json.loads(bytes(archive["header"].tobytes()).decode())
            names = set(archive.files) - {"header"}
        assert set(header["checksums"]) == names
        assert all(isinstance(v, int) for v in header["checksums"].values())

    def test_truncated_archive_fails_closed(self, tmp_path, cluster_data):
        snapshot = _fitted_snapshot(cluster_data)
        path = save_model(snapshot, tmp_path / "m.npz")
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(SnapshotCorruptionError):
            load_snapshot(path)

    def test_bit_flip_in_array_data_fails_closed(self, tmp_path, cluster_data):
        snapshot = _fitted_snapshot(cluster_data)
        path = save_model(snapshot, tmp_path / "m.npz")
        _flip_member_byte(path, "weights")
        with pytest.raises(SnapshotCorruptionError):
            load_snapshot(path)

    def test_corruption_error_is_a_data_error(self):
        assert issubclass(SnapshotCorruptionError, DataError)

    def test_injected_corruption_site(self, tmp_path, cluster_data):
        from repro.serve import SNAPSHOT_CORRUPT, FaultInjector, FaultSpec

        snapshot = _fitted_snapshot(cluster_data)
        path = save_model(snapshot, tmp_path / "m.npz")
        injector = FaultInjector(
            seed=3, specs=[FaultSpec(site=SNAPSHOT_CORRUPT, probability=1.0)]
        )
        with pytest.raises(SnapshotCorruptionError):
            load_snapshot(path, fault_injector=injector)
        # The archive itself is fine: a clean load still works.
        assert load_snapshot(path).is_fitted


# --------------------------------------------------------------------- #
# Delta snapshots: row-level diffs, checksum-verified materialisation
# --------------------------------------------------------------------- #
class TestDeltaSnapshots:
    def _base_and_current(self, cluster_data):
        X, y = cluster_data
        classifier = SomClassifier(BinarySom(12, X.shape[1], seed=4)).fit(
            X, y, epochs=2, seed=1
        )
        base = ModelSnapshot.of(classifier)
        for row in X[:6]:
            classifier.som.partial_fit(row, 0, 4)
        current = ModelSnapshot.of(classifier)
        return base, current

    def test_between_apply_is_bit_exact(self, cluster_data):
        base, current = self._base_and_current(cluster_data)
        delta = DeltaSnapshot.between(base, current)
        assert 0 < delta.n_rows <= base.weights.shape[0]
        applied = delta.apply(base)
        np.testing.assert_array_equal(applied.weights, current.weights)
        assert applied.weights_version == current.weights_version
        np.testing.assert_array_equal(
            applied.labelling.node_labels, current.labelling.node_labels
        )

    def test_apply_refuses_wrong_base(self, cluster_data):
        base, current = self._base_and_current(cluster_data)
        delta = DeltaSnapshot.between(base, current)
        with pytest.raises(DataError):
            delta.apply(current)  # weights_version mismatch

    def test_tampered_checksum_fails_closed(self, cluster_data):
        import dataclasses

        base, current = self._base_and_current(cluster_data)
        delta = DeltaSnapshot.between(base, current)
        tampered = dataclasses.replace(
            delta, full_weights_crc32=delta.full_weights_crc32 ^ 1
        )
        with pytest.raises(SnapshotCorruptionError):
            tampered.apply(base)

    def test_delta_archive_roundtrip(self, tmp_path, cluster_data):
        base, current = self._base_and_current(cluster_data)
        delta = DeltaSnapshot.between(base, current, metadata={"source": "online"})
        path = save_delta(delta, tmp_path / "d.npz")
        loaded = load_delta(path)
        assert loaded.metadata["source"] == "online"
        np.testing.assert_array_equal(loaded.row_indices, delta.row_indices)
        applied = loaded.apply(base)
        np.testing.assert_array_equal(applied.weights, current.weights)

    def test_loaders_refuse_the_wrong_archive_kind(self, tmp_path, cluster_data):
        base, current = self._base_and_current(cluster_data)
        full_path = save_model(base, tmp_path / "full.npz")
        delta_path = save_delta(
            DeltaSnapshot.between(base, current), tmp_path / "d.npz"
        )
        with pytest.raises(DataError, match="delta"):
            load_snapshot(delta_path)
        with pytest.raises(DataError, match="full model"):
            load_delta(full_path)

    def test_corrupted_delta_archive_fails_closed(self, tmp_path, cluster_data):
        base, current = self._base_and_current(cluster_data)
        path = save_delta(DeltaSnapshot.between(base, current), tmp_path / "d.npz")
        _flip_member_byte(path, "rows")
        with pytest.raises(SnapshotCorruptionError):
            load_delta(path)
