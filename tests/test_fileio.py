import json
import math

import numpy as np
import pytest

from kweave.errors import InvalidInput
from kweave.fileio import (
    FRAME_FORMAT,
    OPERATOR_FORMAT,
    encode,
    file_digest,
    frame_from_payload,
    frame_payload,
    load_frame,
    load_operator,
    operator_from_payload,
    pairs,
    save_frame,
    save_operator,
    write_json,
)
from kweave.frames import BoundsPair, Frame
from kweave.kframe import KFrameReport
from kweave.weaving import Partition


def awkward_frame():
    rng = np.random.default_rng(90210)
    m = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
    m[0, 0] = 0.1 + 0.2j  # not exactly representable in binary
    m[1, 2] = -0.0
    return Frame(m)


def test_frame_roundtrip_is_bit_exact(tmp_path):
    f = awkward_frame()
    path = tmp_path / "frame.json"
    save_frame(path, f)
    loaded = load_frame(path)
    assert np.array_equal(loaded.matrix, f.matrix)  # no tolerance


def test_operator_roundtrip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(8)
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    path = tmp_path / "op.json"
    save_operator(path, m)
    assert np.array_equal(load_operator(path), m)


def test_save_is_deterministic(tmp_path):
    f = awkward_frame()
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_frame(p1, f)
    save_frame(p2, f)
    assert p1.read_bytes() == p2.read_bytes()
    assert file_digest(p1) == file_digest(p2)


def test_digest_format_and_sensitivity(tmp_path):
    p = tmp_path / "x.json"
    p.write_text("hello\n")
    d = file_digest(p)
    assert d.startswith("sha256:") and len(d) == 7 + 64
    p.write_text("hello!\n")
    assert file_digest(p) != d


def test_pairs_of_a_vector_and_a_matrix():
    assert pairs(np.array([1 + 2j, -0.5])) == [[1.0, 2.0], [-0.5, 0.0]]
    assert pairs(np.array([[1j, 2], [3, -4j]])) == [[[0.0, 1.0], [2.0, 0.0]],
                                                   [[3.0, 0.0], [0.0, -4.0]]]
    assert pairs(np.zeros((2, 0))) == [[], []]


def test_pairs_keep_negative_zero():
    (re, im), = pairs(np.array([complex(-0.0, -0.0)]))
    assert math.copysign(1.0, re) == -1.0 and math.copysign(1.0, im) == -1.0


def test_payload_shape_fields():
    f = awkward_frame()
    payload = frame_payload(f)
    assert payload["format_version"] == FRAME_FORMAT
    assert payload["dim"] == 3
    assert payload["count"] == 5
    assert len(payload["vectors"]) == 5
    assert all(len(col) == 3 for col in payload["vectors"])


def test_encode_writes_non_finite_floats_as_null():
    assert encode(1.5) == 1.5
    assert encode(None) is None
    assert encode(math.inf) is None
    assert encode(-math.inf) is None
    assert encode(math.nan) is None
    assert encode(np.float64(np.inf)) is None


def test_encode_report_types_field_by_field():
    assert encode(BoundsPair(0.5, math.inf)) == {"lower": 0.5, "upper": None}
    report = KFrameReport(is_kframe=False, lower=-0.0, upper=2.0, threshold=1.0,
                          witness=np.array([1j, -0.0]))
    encoded = encode(report)
    assert encoded == {"is_kframe": False, "lower": -0.0, "upper": 2.0, "threshold": 1.0,
                       "witness": [[0.0, 1.0], [-0.0, 0.0]]}
    assert math.copysign(1.0, encoded["lower"]) == -1.0
    assert encode({"p": Partition((0, 1, 1), 2), "q": Partition((3, 10), 11)}) == {
        "p": "011", "q": "3-10"}


def test_write_json_refuses_non_finite_floats(tmp_path):
    with pytest.raises(ValueError):
        write_json(tmp_path / "r.json", {"x": math.inf})


def test_failed_encode_leaves_no_file(tmp_path):
    path = tmp_path / "r.json"
    with pytest.raises(ValueError):
        write_json(path, {"x": float("nan")})
    assert not path.exists()


def test_written_file_is_sorted_pretty_json(tmp_path):
    p = tmp_path / "f.json"
    write_json(p, {"b": 1, "a": 2})
    assert p.read_text() == '{\n  "a": 2,\n  "b": 1\n}\n'


class TestRejectedInputs:
    def test_wrong_format_version(self):
        with pytest.raises(InvalidInput, match="format_version"):
            frame_from_payload({"format_version": "kweave-frame-v0"})
        with pytest.raises(InvalidInput, match="format_version"):
            operator_from_payload({"format_version": FRAME_FORMAT})

    def test_not_an_object(self):
        with pytest.raises(InvalidInput):
            frame_from_payload([1, 2])

    def test_count_mismatch(self):
        payload = frame_payload(awkward_frame())
        payload["count"] = 7
        with pytest.raises(InvalidInput, match="vectors"):
            frame_from_payload(payload)

    def test_bad_entry(self):
        payload = frame_payload(awkward_frame())
        payload["vectors"][0][0] = [1.0]  # not a pair
        with pytest.raises(InvalidInput, match="pair"):
            frame_from_payload(payload)
        payload["vectors"][0][0] = ["x", "y"]
        with pytest.raises(InvalidInput, match="pair"):
            frame_from_payload(payload)

    @pytest.mark.parametrize("entry", [["1", "2"], None, [None, 1.0], [True, "2"], []])
    def test_entries_must_be_numeric_pairs(self, entry):
        # Numeric strings and nulls would silently become numbers (or NaN)
        # under a float conversion; both formats must refuse them.
        payload = frame_payload(awkward_frame())
        payload["vectors"][1][2] = entry
        with pytest.raises(InvalidInput, match="pair"):
            frame_from_payload(payload)
        payload = {"format_version": OPERATOR_FORMAT, "dim": 2,
                   "rows": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], entry]]}
        with pytest.raises(InvalidInput, match="pair"):
            operator_from_payload(payload)

    def test_short_vector(self):
        payload = frame_payload(awkward_frame())
        payload["vectors"][2] = payload["vectors"][2][:-1]
        with pytest.raises(InvalidInput, match="entries"):
            frame_from_payload(payload)

    @pytest.mark.parametrize("key, value", [("count", 2.7), ("count", 5.0), ("dim", "3"),
                                            ("dim", True), ("count", None)])
    def test_sizes_must_be_json_integers(self, key, value):
        payload = frame_payload(awkward_frame())
        payload[key] = value
        with pytest.raises(InvalidInput, match="malformed frame file"):
            frame_from_payload(payload)
        payload = {"format_version": OPERATOR_FORMAT, "dim": value,
                   "rows": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]}
        with pytest.raises(InvalidInput, match="malformed operator file"):
            operator_from_payload(payload)

    def test_missing_keys(self):
        with pytest.raises(InvalidInput, match="malformed"):
            frame_from_payload({"format_version": FRAME_FORMAT})

    def test_operator_wrong_row_count(self):
        payload = {
            "format_version": OPERATOR_FORMAT,
            "dim": 2,
            "rows": [[[1.0, 0.0], [0.0, 0.0]]],
        }
        with pytest.raises(InvalidInput, match="rows"):
            operator_from_payload(payload)

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(InvalidInput, match="cannot read"):
            load_frame(tmp_path / "missing.json")

    def test_invalid_json(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text("{not json")
        with pytest.raises(InvalidInput, match="not valid JSON"):
            load_frame(p)

    def test_non_finite_frame_rejected(self, tmp_path):
        payload = frame_payload(awkward_frame())
        payload["vectors"][0][0] = [1e400, 0.0]  # json reads this as Infinity
        p = tmp_path / "inf.json"
        p.write_text(json.dumps(payload))
        with pytest.raises(InvalidInput):
            load_frame(p)
