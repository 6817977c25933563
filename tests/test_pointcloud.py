"""Tests for Semantic3D parsing, the label checks, and ID/OOD map output."""

import io

import numpy as np
import pytest

from pcood import (LabeledCloud, ParseError, StructuralError, ValidationError,
                   apply_threshold, parse_semantic3d, read_labels,
                   write_idood_map)


def _parse(points):
    return parse_semantic3d(io.BytesIO(points.encode()))


def _parse_labeled(points, labels, class_count=8):
    """A cloud and the labels read for it, as ``iou`` reads them."""
    cloud = _parse(points)
    return cloud, read_labels(io.BytesIO(labels.encode()), len(cloud), class_count)


def _random_cloud(rng, n):
    xyz = rng.normal(scale=50.0, size=(n, 3))
    intensity = rng.uniform(0, 2048, size=n)
    rgb = rng.integers(0, 256, size=(n, 3))
    return LabeledCloud(xyz, intensity, rgb)


class TestParse:
    def test_single_line_with_label(self):
        cloud, labels = _parse_labeled("1.0 2.0 3.0 100 255 0 0\n", "5\n")
        assert len(cloud) == 1
        assert cloud.xyz.tolist() == [[1.0, 2.0, 3.0]]
        assert cloud.intensity.tolist() == [100.0]
        assert cloud.rgb.tolist() == [[255, 0, 0]]
        assert labels[0] == 5

    def test_empty_stream(self):
        assert len(_parse("")) == 0

    def test_blank_lines_and_tabs_tolerated(self):
        text = "1\t2\t3\t4\t5\t6\t7\n\n   \n-1 -2 -3 0 0 0 0\n\n"
        cloud, labels = _parse_labeled(text, "3\n\n0\n")
        assert len(cloud) == 2
        assert labels.tolist() == [3, 0]

    def test_wrong_field_count_names_line(self):
        with pytest.raises(ParseError, match="line 2"):
            _parse("0 0 0 0 0 0 0\n1 2 3\n")

    def test_non_numeric_token_names_line(self):
        with pytest.raises(ParseError, match="line 1"):
            _parse("0 0 zero 0 0 0 0\n")

    def test_non_integer_color_rejected(self):
        with pytest.raises(ParseError, match="line 1"):
            _parse("0 0 0 0 12.5 0 0\n")

    def test_non_finite_coordinate_rejected(self):
        with pytest.raises(ParseError, match="line 1"):
            _parse("nan 0 0 0 0 0 0\n")
        with pytest.raises(ParseError, match="line 1"):
            _parse("0 0 0 inf 0 0 0\n")

    def test_color_out_of_range(self):
        with pytest.raises(ParseError, match="line 1"):
            _parse("0 0 0 0 256 0 0\n")
        with pytest.raises(ParseError, match="line 1"):
            _parse("0 0 0 0 0 -1 0\n")

    def test_label_count_mismatch(self):
        points = "0 0 0 0 0 0 0\n" * 3
        with pytest.raises(StructuralError):
            _parse_labeled(points, "1\n2\n")

    def test_bad_label_token(self):
        with pytest.raises(ParseError, match="labels line 1"):
            _parse_labeled("0 0 0 0 0 0 0\n", "x\n")
        with pytest.raises(ParseError, match="labels line 1"):
            _parse_labeled("0 0 0 0 0 0 0\n", "1 2\n")

    def test_label_outside_class_range(self):
        with pytest.raises(ValidationError):
            _parse_labeled("0 0 0 0 0 0 0\n", "9\n")
        with pytest.raises(ValidationError):
            _parse_labeled("0 0 0 0 0 0 0\n", "-1\n")

    def test_custom_class_count(self):
        _, labels = _parse_labeled("0 0 0 0 0 0 0\n", "3\n", class_count=3)
        assert labels.tolist() == [3]
        with pytest.raises(ValidationError):
            _parse_labeled("0 0 0 0 0 0 0\n", "4\n", class_count=3)

    def test_text_stream_also_accepted(self):
        cloud = parse_semantic3d(io.StringIO("1 2 3 4 5 6 7\n"))
        assert len(cloud) == 1


class TestTypes:
    def test_cloud_shape_checks(self):
        cloud, labels = _parse_labeled("0 0 0 0 0 0 0\n1 1 1 1 1 1 1\n2 2 2 2 2 2 2\n",
                                       "1\n0\n2\n")
        columns = (cloud.xyz, cloud.intensity, cloud.rgb, labels)
        assert [(a.dtype, a.shape) for a in columns] == [
            (np.float64, (3, 3)), (np.float64, (3,)), (np.uint8, (3, 3)),
            (np.int64, (3,))]
        with pytest.raises(StructuralError) as exc:
            read_labels(io.BytesIO(b"1\n2\n"), 3, 8)
        assert str(exc.value) == "3 points but 2 labels"

    def test_cloud_value_checks(self):
        with pytest.raises(ValidationError) as exc:
            read_labels(io.BytesIO(b"1\n\n9\n-1\n"), 3, 8)
        assert str(exc.value) == "label 9 at index 1 outside 0..8"
        # The count is checked before the range.
        with pytest.raises(StructuralError) as exc:
            read_labels(io.BytesIO(b"9\n"), 3, 8)
        assert str(exc.value) == "3 points but 1 labels"
        with pytest.raises(ParseError, match="^points line 1: non-finite"):
            _parse("nan 0 0 0 0 0 0\n")
        with pytest.raises(ParseError, match="^points line 1: color r=300 outside"):
            _parse("0 0 0 0 300 0 0\n")

    def test_cloud_is_frozen(self):
        cloud, labels = _parse_labeled("1 2 3 4 5 6 7\n8 9 10 11 12 13 14\n", "1\n2\n")
        for column in (cloud.xyz, cloud.intensity, cloud.rgb, labels):
            with pytest.raises(ValueError):
                column[0] = 1

    def test_mask_checks(self):
        flags = apply_threshold(np.array([0.1, 0.9, 0.7, 0.2]), 0.5)
        assert flags.tolist() == [0, 1, 1, 0]
        cloud = _parse("0 0 0 0 0 0 0\n" * 4)
        sink = io.BytesIO()
        write_idood_map(cloud, flags, sink)
        assert sink.getvalue().decode().count("255 0 0") == 2


class TestIdOodMap:
    def test_color_convention(self):
        cloud = _parse("1 2 3 4 5 6 7\n8 9 10 11 12 13 14\n")
        sink = io.BytesIO()
        write_idood_map(cloud, np.array([0, 1], dtype=np.uint8), sink)
        lines = sink.getvalue().decode().splitlines()
        assert len(lines) == 2
        assert lines[0].endswith("0 255 0")
        assert lines[1].endswith("255 0 0")
        assert lines[0].startswith("1.000000 2.000000 3.000000")

    def test_length_mismatch(self):
        cloud = _parse("1 2 3 4 5 6 7\n")
        with pytest.raises(StructuralError) as exc:
            write_idood_map(cloud, np.array([0, 1], dtype=np.uint8), io.BytesIO())
        assert str(exc.value) == "mask length 2 does not match cloud length 1"

    def test_green_count_matches_mask(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            n = int(rng.integers(1, 40))
            cloud = _random_cloud(rng, n)
            flags = rng.integers(0, 2, size=n).astype(np.uint8)
            sink = io.BytesIO()
            write_idood_map(cloud, flags, sink)
            lines = sink.getvalue().decode().splitlines()
            greens = sum(1 for line in lines if line.endswith("0 255 0"))
            assert len(lines) == n
            assert greens == n - int(flags.sum())

    def test_coordinates_round_trip_to_printed_precision(self):
        rng = np.random.default_rng(12)
        cloud = _random_cloud(rng, 64)
        sink = io.BytesIO()
        write_idood_map(cloud, np.zeros(64, dtype=np.uint8), sink)
        parsed = np.array([[float(f) for f in line.split()[:3]]
                           for line in sink.getvalue().decode().splitlines()])
        # 6 printed decimals bound the absolute error by 5e-7.
        np.testing.assert_allclose(parsed, cloud.xyz, rtol=0, atol=5.1e-7)

    def test_empty_cloud_writes_nothing(self):
        empty = LabeledCloud(np.zeros((0, 3)), np.zeros(0), np.zeros((0, 3)))
        sink = io.BytesIO()
        write_idood_map(empty, np.zeros(0, dtype=np.uint8), sink)
        assert sink.getvalue() == b""
