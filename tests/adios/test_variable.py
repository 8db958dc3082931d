import dataclasses

import numpy as np
import pytest

from repro.adios.variable import Attribute, BlockInfo, Variable, dtype_display_name
from repro.util.errors import VariableError


class TestVariable:
    def test_global_array_definition(self):
        v = Variable("U", np.float64, shape=(8, 8, 8), start=(0, 0, 0), count=(4, 8, 8))
        assert v.shape == (8, 8, 8)
        assert v.count == (4, 8, 8)
        assert not v.is_scalar

    def test_scalar(self):
        v = Variable("step", np.int32)
        assert v.is_scalar
        with pytest.raises(VariableError):
            v.set_selection((0,), (1,))

    def test_default_selection_whole_array(self):
        v = Variable("U", np.float64, shape=(4, 4, 4))
        assert v.start == (0, 0, 0)
        assert v.count == (4, 4, 4)

    def test_selection_out_of_bounds(self):
        v = Variable("U", np.float64, shape=(8, 8, 8))
        with pytest.raises(VariableError):
            v.set_selection((6, 0, 0), (4, 8, 8))
        with pytest.raises(VariableError):
            v.set_selection((-1, 0, 0), (2, 2, 2))

    def test_selection_rank_mismatch(self):
        v = Variable("U", np.float64, shape=(8, 8, 8))
        with pytest.raises(VariableError):
            v.set_selection((0, 0), (8, 8))

    def test_zero_count_rejected(self):
        v = Variable("U", np.float64, shape=(8, 8, 8))
        with pytest.raises(VariableError):
            v.set_selection((0, 0, 0), (0, 8, 8))

    def test_validate_data_shape(self):
        v = Variable("U", np.float64, shape=(8, 8, 8), count=(2, 8, 8))
        v.validate_data(np.zeros((2, 8, 8)))
        with pytest.raises(VariableError):
            v.validate_data(np.zeros((8, 8, 8)))

    def test_validate_scalar_data(self):
        v = Variable("step", np.int32)
        assert v.validate_data(5).shape == ()
        with pytest.raises(VariableError):
            v.validate_data(np.zeros(3))

    def test_empty_name_rejected(self):
        with pytest.raises(VariableError):
            Variable("", np.float64)

    def test_nonpositive_shape_rejected(self):
        with pytest.raises(VariableError):
            Variable("U", np.float64, shape=(0, 4, 4))


class TestAttribute:
    @pytest.mark.parametrize(
        "value,dtype_name",
        [
            (0.2, "double"),
            (42, "int64_t"),
            ("BP5", "string"),
            (["FIDES", "VTX"], "string array"),
            ([1.0, 2.0], "double array"),
        ],
    )
    def test_dtype_names(self, value, dtype_name):
        assert Attribute("a", value).dtype_name() == dtype_name

    def test_display_value(self):
        assert Attribute("Du", 0.2).display_value() == "0.2"
        assert Attribute("s", ["a", "b"]).display_value() == "a, b"

    def test_unsupported_type(self):
        with pytest.raises(VariableError):
            Attribute("bad", object()).dtype_name()


class TestDtypeDisplayName:
    def test_c_style_names(self):
        assert dtype_display_name(np.float64) == "double"
        assert dtype_display_name(np.int32) == "int32_t"
        assert dtype_display_name(np.float32) == "float"


class TestBlockInfo:
    def _block(self):
        return BlockInfo(
            var="U", step=0, writer_rank=1, subfile=0, offset=128,
            nbytes=64, start=(4, 0, 0), count=(4, 4, 4),
            vmin=0.0, vmax=1.0, crc32=123,
        )

    def test_json_roundtrip(self):
        block = self._block()
        assert BlockInfo.from_json(block.to_json()) == block

    def test_frozen(self):
        # the index caches each block's JSON text, so blocks never change
        block = self._block()
        with pytest.raises(dataclasses.FrozenInstanceError):
            block.offset = 0

    def test_intersection_overlap(self):
        block = self._block()
        overlap = block.intersection((6, 2, 2), (4, 4, 4))
        assert overlap == ((6, 2, 2), (2, 2, 2))

    def test_intersection_disjoint(self):
        block = self._block()
        assert block.intersection((0, 0, 0), (4, 4, 4)) is None

    def test_intersection_contained(self):
        block = self._block()
        assert block.intersection((4, 0, 0), (4, 4, 4)) == ((4, 0, 0), (4, 4, 4))
