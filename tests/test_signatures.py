"""Unit tests for the binary signature front end (section III-A)."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, DataError
from repro.signatures import (
    BinarySignature,
    ColourHistogram,
    FixedFractionThreshold,
    MeanThreshold,
    MedianThreshold,
    binarize_histogram,
    extract_signature,
    image_to_signature,
    mean_threshold,
    pack_bits,
    packed_signature_words,
    rgb_histogram,
    signature_to_image,
    unpack_bits,
)
from repro.signatures.histogram import BINS_PER_CHANNEL, HISTOGRAM_BINS


def _solid_image(colour, height=20, width=10):
    image = np.zeros((height, width, 3), dtype=np.uint8)
    image[:] = colour
    return image


class TestColourHistogram:
    def test_total_bins_is_768_by_default(self):
        assert ColourHistogram().total_bins == HISTOGRAM_BINS == 768
        assert BINS_PER_CHANNEL == 256

    def test_counts_land_in_expected_bins(self):
        image = _solid_image((10, 128, 255))
        histogram = rgb_histogram(image)
        pixels = image.shape[0] * image.shape[1]
        assert histogram[10] == pixels            # red channel bin 10
        assert histogram[256 + 128] == pixels     # green channel bin 128
        assert histogram[512 + 255] == pixels     # blue channel bin 255
        assert histogram.sum() == 3 * pixels

    def test_mask_restricts_pixels(self):
        image = _solid_image((50, 50, 50))
        mask = np.zeros(image.shape[:2], dtype=bool)
        mask[:5, :5] = True
        histogram = rgb_histogram(image, mask)
        assert histogram.sum() == 3 * 25

    def test_incremental_accumulation_matches_one_shot(self):
        rng = np.random.default_rng(0)
        image = rng.integers(0, 256, size=(12, 12, 3)).astype(np.uint8)
        histogram = ColourHistogram()
        histogram.add_image(image[:6])
        histogram.add_image(image[6:])
        assert np.array_equal(histogram.counts, rgb_histogram(image))

    def test_merge(self):
        a = ColourHistogram()
        a.add_image(_solid_image((1, 2, 3)))
        b = ColourHistogram()
        b.add_image(_solid_image((4, 5, 6)))
        merged = a.merge(b)
        assert merged.counts.sum() == a.counts.sum() + b.counts.sum()
        assert merged.pixel_count == a.pixel_count + b.pixel_count

    def test_merge_requires_same_bins(self):
        with pytest.raises(ConfigurationError):
            ColourHistogram(256).merge(ColourHistogram(128))

    def test_coarser_bins(self):
        histogram = ColourHistogram(bins_per_channel=16)
        histogram.add_image(_solid_image((255, 0, 16)))
        assert histogram.total_bins == 48
        assert histogram.counts[15] > 0      # red 255 -> bin 15
        assert histogram.counts[16] > 0      # green 0 -> bin 0 of channel 1
        assert histogram.counts[32 + 1] > 0  # blue 16 -> bin 1 of channel 2

    def test_invalid_bins(self):
        with pytest.raises(ConfigurationError):
            ColourHistogram(0)
        with pytest.raises(ConfigurationError):
            ColourHistogram(7)  # must divide 256

    def test_channel_slices(self):
        histogram = ColourHistogram()
        histogram.add_image(_solid_image((9, 0, 0)))
        assert histogram.channel(0)[9] > 0
        assert histogram.channel(1).sum() == histogram.channel(0).sum()
        with pytest.raises(ConfigurationError):
            histogram.channel(3)

    def test_normalised_sums_to_one(self):
        histogram = ColourHistogram()
        histogram.add_image(_solid_image((9, 9, 9)))
        assert histogram.normalised().sum() == pytest.approx(1.0)
        histogram.reset()
        assert histogram.normalised().sum() == 0.0

    def test_rejects_bad_images(self):
        with pytest.raises(DataError):
            rgb_histogram(np.zeros((5, 5), dtype=np.uint8))
        with pytest.raises(DataError):
            rgb_histogram(np.zeros((5, 5, 3), dtype=np.float32))
        with pytest.raises(DataError):
            rgb_histogram(np.zeros((5, 5, 3), dtype=np.uint8), np.zeros((4, 4), dtype=bool))


class TestBinarisation:
    def test_figure2_example(self):
        """The 16-bin example of figure 2: bins >= mean map to 1."""
        histogram = np.array([5, 1, 6, 7, 4, 1, 6, 0, 5, 1, 4, 3, 0, 0, 0, 3], dtype=float)
        theta = mean_threshold(histogram)
        bits = binarize_histogram(histogram)
        assert theta == pytest.approx(histogram.mean())
        assert np.array_equal(bits, (histogram >= theta).astype(np.uint8))
        assert set(np.unique(bits)).issubset({0, 1})

    def test_equation_uses_greater_or_equal(self):
        histogram = np.array([2.0, 2.0, 2.0, 2.0])
        assert binarize_histogram(histogram).tolist() == [1, 1, 1, 1]

    def test_median_threshold(self):
        histogram = np.array([0.0, 0.0, 5.0, 10.0])
        assert MedianThreshold().threshold(histogram) == pytest.approx(2.5)

    def test_fixed_fraction_sets_expected_count(self):
        histogram = np.arange(100, dtype=float)
        bits = FixedFractionThreshold(0.25).binarize(histogram)
        assert bits.sum() == pytest.approx(25, abs=1)

    def test_fixed_fraction_validation(self):
        with pytest.raises(ConfigurationError):
            FixedFractionThreshold(1.5)

    def test_rejects_negative_and_empty(self):
        with pytest.raises(DataError):
            binarize_histogram(np.array([-1.0, 2.0]))
        with pytest.raises(DataError):
            binarize_histogram(np.array([]))
        with pytest.raises(DataError):
            binarize_histogram(np.zeros((2, 2)))

    def test_strategy_callable(self):
        histogram = np.array([1.0, 3.0])
        assert MeanThreshold()(histogram).tolist() == [0, 1]


class TestPacking:
    def test_pack_unpack_roundtrip(self, rng):
        bits = rng.integers(0, 2, 768).astype(np.uint8)
        assert np.array_equal(unpack_bits(pack_bits(bits), 768), bits)

    def test_pack_length(self, rng):
        bits = rng.integers(0, 2, 768).astype(np.uint8)
        assert pack_bits(bits).size == 96

    def test_unpack_too_short(self):
        with pytest.raises(DataError):
            unpack_bits(np.zeros(2, dtype=np.uint8), 100)

    def test_signature_image_roundtrip(self, rng):
        bits = rng.integers(0, 2, 768).astype(np.uint8)
        image = signature_to_image(bits)
        assert image.shape == (24, 32)
        assert np.array_equal(image_to_signature(image), bits)

    def test_wrong_length_rejected(self):
        with pytest.raises(DataError):
            signature_to_image(np.zeros(100, dtype=np.uint8))

    def test_non_binary_rejected(self):
        with pytest.raises(DataError):
            pack_bits(np.array([0, 1, 2], dtype=np.uint8))


#: The signature rule, per dtype: (dtype, zero, one, odd value, the bit the
#: odd value stands for or None when the rule rejects it).  Every admitted
#: signature passes through it, and a faster check must keep this table.
SIGNATURE_RULE = [
    pytest.param(bool, False, True, True, 1, id="bool"),
    pytest.param(np.uint8, 0, 1, 1, 1, id="uint8"),
    pytest.param(np.float16, 0.0, 1.0, 1.0, 1, id="float16-0/1"),
    pytest.param(np.float64, 0.0, 1.0, -0.0, 0, id="float64-negative-zero"),
    pytest.param(np.complex128, 0, 1, 1 + 0j, 1, id="complex-1+0j"),
    pytest.param(object, 0, 1, 1, 1, id="object-ints"),
    pytest.param(np.int8, 0, 1, -1, None, id="int8-minus-1"),
    pytest.param(np.int64, 0, 1, 2, None, id="int64-2"),
    pytest.param(np.float64, 0.0, 1.0, 0.5, None, id="float64-0.5"),
    pytest.param(np.float32, 0.0, 1.0, np.nan, None, id="float32-nan"),
    pytest.param(np.float64, 0.0, 1.0, np.inf, None, id="float64-inf"),
    pytest.param(np.complex128, 0, 1, 1j, None, id="complex-1j"),
    pytest.param(np.uint64, 0, 1, 2**63, None, id="uint64-2**63"),
    pytest.param(str, "0", "1", "1", None, id="strings-0/1"),
    pytest.param(object, 0, 1, 0.5, None, id="object-0.5"),
]


class TestSignatureRule:
    """What ``packed_signature_words`` accepts, in every dtype, as a 1-D row
    and as a 2-D block with the odd value in its first, middle or last row."""

    PATTERN = np.array([[0, 1, 1, 0, 1, 0, 0, 1, 1, 1, 0, 0, 0, 1, 0, 1],
                        [1, 1, 0, 0, 0, 1, 0, 1, 0, 0, 1, 1, 1, 0, 0, 1],
                        [0, 0, 0, 1, 1, 1, 1, 0, 1, 0, 1, 0, 1, 1, 0, 0]], dtype=np.uint8)
    COLUMN = 6  # where the odd value goes

    def _signatures(self, dtype, zero, one, odd):
        """(signature, row of the odd value; None for the 1-D row) of each shape."""
        def typed(bits):
            return np.array([[one if bit else zero for bit in row] for row in bits], dtype=dtype)

        row = typed(self.PATTERN[:1])[0]
        row[self.COLUMN] = odd
        yield row, None
        for odd_row in range(len(self.PATTERN)):
            block = typed(self.PATTERN)
            block[odd_row, self.COLUMN] = odd
            yield block, odd_row

    @pytest.mark.parametrize("dtype,zero,one,odd,bit", SIGNATURE_RULE)
    def test_the_rule_holds_per_dtype_for_rows_and_blocks(self, dtype, zero, one, odd, bit):
        for signature, odd_row in self._signatures(dtype, zero, one, odd):
            if bit is None:
                with pytest.raises(DataError):
                    packed_signature_words(signature)
                continue
            expected = self.PATTERN.copy()
            expected[odd_row or 0, self.COLUMN] = bit
            np.testing.assert_array_equal(
                packed_signature_words(signature),
                packed_signature_words(expected[0] if odd_row is None else expected),
            )


class TestBinarySignature:
    def test_extraction_produces_768_bits(self):
        image = _solid_image((120, 30, 200), 40, 30)
        mask = np.ones((40, 30), dtype=bool)
        signature = extract_signature(image, mask, label=3, frame_index=7)
        assert len(signature) == 768
        assert signature.label == 3
        assert signature.frame_index == 7
        assert signature.popcount > 0

    def test_bits_are_read_only(self):
        signature = BinarySignature(np.array([0, 1, 1, 0], dtype=np.uint8))
        with pytest.raises(ValueError):
            signature.bits[0] = 1

    def test_equality_and_hash(self):
        a = BinarySignature(np.array([0, 1], dtype=np.uint8), label=1)
        b = BinarySignature(np.array([0, 1], dtype=np.uint8), label=1)
        c = BinarySignature(np.array([1, 1], dtype=np.uint8), label=1)
        assert a == b and hash(a) == hash(b)
        assert a != c

    def test_hamming_distance(self):
        a = BinarySignature(np.array([0, 1, 0, 1], dtype=np.uint8))
        b = BinarySignature(np.array([1, 1, 0, 0], dtype=np.uint8))
        assert a.hamming_distance(b) == 2
        with pytest.raises(DataError):
            a.hamming_distance(np.zeros(3, dtype=np.uint8))

    def test_with_label(self):
        signature = BinarySignature(np.array([0, 1], dtype=np.uint8))
        labelled = signature.with_label(4)
        assert labelled.label == 4
        assert signature.label is None

    def test_rejects_non_binary(self):
        with pytest.raises(DataError):
            BinarySignature(np.array([0, 2], dtype=np.uint8))

    def test_same_object_same_signature_different_frames(self):
        """The colour signature is position invariant (same pixels, shifted)."""
        image_a = np.zeros((30, 30, 3), dtype=np.uint8)
        image_b = np.zeros((30, 30, 3), dtype=np.uint8)
        image_a[5:15, 5:15] = (200, 40, 90)
        image_b[15:25, 10:20] = (200, 40, 90)
        mask_a = np.zeros((30, 30), dtype=bool)
        mask_b = np.zeros((30, 30), dtype=bool)
        mask_a[5:15, 5:15] = True
        mask_b[15:25, 10:20] = True
        sig_a = extract_signature(image_a, mask_a)
        sig_b = extract_signature(image_b, mask_b)
        assert sig_a.hamming_distance(sig_b) == 0


class TestExtendedFeatures:
    def test_shape_features_of_rectangle(self):
        from repro.signatures import shape_features

        mask = np.zeros((20, 20), dtype=bool)
        mask[2:12, 4:9] = True
        features = shape_features(mask)
        assert features.area == 50
        assert features.height == 10
        assert features.width == 5
        assert features.aspect_ratio == pytest.approx(2.0)
        assert features.fill_ratio == pytest.approx(1.0)
        assert sum(features.vertical_profile) == pytest.approx(1.0)

    def test_empty_mask(self):
        from repro.signatures import shape_features

        features = shape_features(np.zeros((10, 10), dtype=bool))
        assert features.area == 0
        assert features.aspect_ratio == 0.0

    def test_extended_extractor_length(self):
        from repro.signatures import ExtendedFeatureExtractor

        extractor = ExtendedFeatureExtractor(bins_per_channel=32, bits_per_feature=4, profile_bands=4)
        image = _solid_image((100, 50, 25), 30, 20)
        mask = np.zeros((30, 20), dtype=bool)
        mask[5:25, 5:15] = True
        bits = extractor.extract(image, mask)
        assert bits.size == extractor.signature_length
        assert set(np.unique(bits)).issubset({0, 1})

    def test_extended_extractor_validation(self):
        from repro.signatures import ExtendedFeatureExtractor

        with pytest.raises(ConfigurationError):
            ExtendedFeatureExtractor(bits_per_feature=0)
