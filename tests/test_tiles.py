import pytest

from wafermesh.tiles import Axis, Layout, ShapeError, partitioned, replicated


class TestLayout:
    def test_double_partition_same_axis_rejected(self):
        with pytest.raises(ShapeError):
            Layout((partitioned("A", Axis.X), partitioned("B", Axis.X)))

    def test_prefill_activation_notation(self):
        layout = Layout((partitioned("L", Axis.Y), partitioned("E", Axis.X)))
        assert layout.notation() == "L_yE_x"

    def test_decode_activation_notation(self):
        layout = Layout((partitioned("E", Axis.Y), replicated("L", Axis.X)))
        assert layout.notation() == "E_yL^x"

    def test_weight_notation(self):
        layout = Layout((partitioned("E", Axis.Y), partitioned("F", Axis.X)))
        assert layout.notation() == "E_yF_x"
