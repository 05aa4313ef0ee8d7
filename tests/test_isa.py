"""Unit tests for the micro-op ISA and code layout."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.cpu.isa import (
    AluOp,
    CodeLayout,
    Function,
    Op,
    OP_SIZE,
    alu,
    br,
    call,
    fence,
    flush,
    icall,
    ijmp,
    jmp,
    kret,
    li,
    load,
    nop,
    ret,
    store,
)


def make_func(name: str, n_ops: int = 4) -> Function:
    return Function(name, [nop() for _ in range(n_ops)])


class TestMicroOpConstructors:
    def test_load_reads_base_register(self):
        op = load("r1", "r2", imm=8)
        assert op.op is Op.LOAD
        assert op.reads() == ("r2",)
        assert op.dst == "r1"
        assert op.imm == 8

    def test_store_reads_base_and_source(self):
        op = store("r1", "r2", imm=16)
        assert op.op is Op.STORE
        assert set(op.reads()) == {"r1", "r2"}

    def test_alu_binary_reads_both_sources(self):
        op = alu("r0", AluOp.ADD, "r1", "r2")
        assert op.reads() == ("r1", "r2")

    def test_li_has_no_reads(self):
        op = li("r0", 42)
        assert op.reads() == ()
        assert op.imm == 42

    def test_branch_carries_target(self):
        op = br("r3", target=7)
        assert op.op is Op.BR
        assert op.target == 7

    def test_control_flow_kinds(self):
        assert jmp(3).op is Op.JMP
        assert call("f").op is Op.CALL
        assert call("f").callee == "f"
        assert icall("r1").op is Op.ICALL
        assert ijmp("r1").op is Op.IJMP
        assert ret().op is Op.RET
        assert kret().op is Op.KRET
        assert fence().op is Op.FENCE
        assert flush("r1").op is Op.FLUSH

    def test_only_loads_are_transmitters(self):
        assert load("r1", "r2").is_transmitter()
        assert not store("r1", "r2").is_transmitter()
        assert not alu("r1", AluOp.ADD, "r2").is_transmitter()

    def test_micro_ops_are_immutable(self):
        op = nop()
        with pytest.raises(AttributeError):
            op.dst = "r1"


class TestFunctionAddressing:
    def test_va_of_uses_op_size(self):
        func = make_func("f", 4)
        func.base_va = 0x1000
        assert func.va_of(0) == 0x1000
        assert func.va_of(3) == 0x1000 + 3 * OP_SIZE

    def test_contains_va_bounds(self):
        func = make_func("f", 4)
        func.base_va = 0x1000
        assert func.contains_va(0x1000)
        assert func.contains_va(func.va_of(3))
        assert not func.contains_va(func.end_va)
        assert not func.contains_va(0xFFF)

    def test_len_is_body_length(self):
        assert len(make_func("f", 9)) == 9


class TestCodeLayout:
    def test_functions_placed_at_stride_boundaries(self):
        layout = CodeLayout(0x40000, stride_ops=64)
        f1 = layout.add(make_func("a", 4))
        f2 = layout.add(make_func("b", 4))
        assert f1.base_va == 0x40000
        assert f2.base_va == 0x40000 + 64 * OP_SIZE

    def test_duplicate_names_rejected(self):
        layout = CodeLayout(0x40000)
        layout.add(make_func("a"))
        with pytest.raises(ValueError, match="duplicate"):
            layout.add(make_func("a"))

    def test_oversized_body_rejected(self):
        layout = CodeLayout(0x40000, stride_ops=8)
        with pytest.raises(ValueError, match="exceeds"):
            layout.add(make_func("big", 8))

    def test_resolve_va_roundtrip(self):
        layout = CodeLayout(0x40000, stride_ops=32)
        funcs = [layout.add(make_func(f"f{i}", 5)) for i in range(10)]
        for func in funcs:
            for idx in range(len(func)):
                assert layout.resolve_va(func.va_of(idx)) == (func, idx)

    def test_resolve_va_in_padding_gap_is_none(self):
        layout = CodeLayout(0x40000, stride_ops=32)
        func = layout.add(make_func("a", 4))
        gap_va = func.end_va + OP_SIZE
        assert layout.resolve_va(gap_va) is None

    def test_resolve_va_outside_text_is_none(self):
        layout = CodeLayout(0x40000, stride_ops=32)
        layout.add(make_func("a", 4))
        assert layout.resolve_va(0x100) is None

    def test_lookup_by_name(self):
        layout = CodeLayout(0x40000)
        func = layout.add(make_func("a"))
        assert layout["a"] is func
        assert layout.get("a") is func
        assert layout.get("missing") is None
        assert "a" in layout
        assert "b" not in layout

    def test_names_and_functions_in_insertion_order(self):
        layout = CodeLayout(0x40000)
        for name in ("x", "y", "z"):
            layout.add(make_func(name))
        assert layout.names() == ["x", "y", "z"]
        assert [f.name for f in layout.functions()] == ["x", "y", "z"]

    @given(st.lists(st.integers(min_value=1, max_value=30),
                    min_size=1, max_size=20))
    def test_resolve_roundtrip_property(self, sizes):
        layout = CodeLayout(0x40000, stride_ops=32)
        funcs = [layout.add(make_func(f"f{i}", n))
                 for i, n in enumerate(sizes)]
        for func in funcs:
            resolved = layout.resolve_va(func.va_of(len(func) - 1))
            assert resolved == (func, len(func) - 1)

    def _two_slots(self):
        layout = CodeLayout(0x40000, stride_ops=32)
        return layout, layout.add(make_func("a", 4)), layout.add(
            make_func("b", 4))

    def test_overlapping_empty_range(self):
        layout, a, _ = self._two_slots()
        assert layout.functions_overlapping(a.base_va, a.base_va) == []
        assert layout.functions_overlapping(a.end_va, a.base_va) == []

    def test_overlapping_before_text(self):
        layout, a, _ = self._two_slots()
        assert layout.functions_overlapping(0x100, a.base_va) == []

    def test_overlapping_padding_gap(self):
        layout, a, b = self._two_slots()
        assert layout.functions_overlapping(a.end_va, b.base_va) == []
        assert layout.functions_overlapping(a.end_va - 1, b.base_va) == [a]

    def test_overlapping_straddles_two_slots(self):
        layout, a, b = self._two_slots()
        assert layout.functions_overlapping(
            a.va_of(2), b.va_of(1)) == [a, b]
        assert layout.functions_overlapping(0, 1 << 40) == [a, b]

    def test_overlapping_overlay_region(self):
        layout, a, b = self._two_slots()
        overlay = layout.overlay()
        jit = overlay.add(make_func("jit", 3))
        assert overlay.functions_overlapping(a.base_va, jit.end_va) == [
            a, b, jit]
        assert overlay.functions_overlapping(jit.va_of(2), 1 << 62) == [jit]
        assert overlay.functions_overlapping(b.end_va, jit.base_va) == []
        assert layout.functions_overlapping(jit.base_va, jit.end_va) == []

    @given(st.integers(min_value=2, max_value=64),
           st.lists(st.integers(min_value=1, max_value=63),
                    min_size=1, max_size=12),
           st.integers(min_value=0, max_value=4095),
           st.integers(min_value=0, max_value=4096),
           st.integers(min_value=0, max_value=4096))
    def test_overlapping_property(self, stride, sizes, skew, lo, span):
        layout = CodeLayout(0x40000 + skew, stride_ops=stride)
        funcs = [layout.add(make_func(f"f{i}", min(n, stride - 1)))
                 for i, n in enumerate(sizes)]
        lo += layout.text_base - 64
        hi = lo + span
        assert layout.functions_overlapping(lo, hi) == [
            f for f in funcs if max(f.base_va, lo) < min(f.end_va, hi)]
