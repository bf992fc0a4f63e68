#!/usr/bin/env python3
"""Generate the small benchmark targets (PLA) and seed netlists (BLIF).

Each benchmark is a classic small combinational function; the seed netlist
is a hand-derived two-input-gate implementation built through
tscsynth.netlist.Builder.  Every seed is simulated against its target table
before anything is written, so benchmarks/ is consistent by construction.

  mult2    2-bit multiplier, 4 in / 4 out, 7 gates
  b1       full adder with its internal xor/and tapped out, 3 in / 4 out, 5 gates
  c17      the classic 6-NAND netlist, 5 in / 2 out
  cm82a    2-bit ripple adder with carry in/out, 5 in / 3 out, 10 gates
  cm42a    BCD-to-decimal decoder (active-low), 4 in / 10 out, 17 gates
  cm138a   3-to-8 decoder with three enables (active-low), 6 in / 8 out, 16 gates
  decod    4-to-16 decoder with enable (active-high), 5 in / 16 out, 28 gates
  rd53     ones count of 5 inputs, 5 in / 3 out
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from tscsynth.formats import TargetSpec, render_blif, render_pla
from tscsynth.netlist import Builder, Circuit, TT_AND, TT_NAND, TT_NOR, TT_OR, TT_XOR
from tscsynth.sim import simulate

TT_GT = 4  # a AND NOT b
TT_LT = 2  # NOT a AND b


def mult2() -> tuple[Circuit, TargetSpec]:
    # Inputs a0 a1 b0 b1; outputs p0..p3 = (a1 a0) * (b1 b0).
    bld = Builder(4)
    p0 = bld.gate(TT_AND, 0, 2)
    t1 = bld.gate(TT_AND, 1, 2)
    t2 = bld.gate(TT_AND, 0, 3)
    p1 = bld.gate(TT_XOR, t1, t2)
    t3 = bld.gate(TT_AND, 1, 3)
    p2 = bld.gate(TT_GT, t3, p0)  # carry into bit 3 equals p0 AND t3
    p3 = bld.gate(TT_AND, p0, t3)
    circuit = bld.circuit([p0, p1, p2, p3])

    cols = [0, 0, 0, 0]
    for w in range(16):
        a = (w & 1) | ((w >> 1) & 1) << 1
        b = ((w >> 2) & 1) | ((w >> 3) & 1) << 1
        prod = a * b
        for j in range(4):
            if (prod >> j) & 1:
                cols[j] |= 1 << w
    return circuit, TargetSpec(4, 4, tuple(cols))


def b1() -> tuple[Circuit, TargetSpec]:
    # Full adder over (a, b, cin) with the internal a^b and a&b also exposed.
    bld = Builder(3)
    x = bld.gate(TT_XOR, 0, 1)
    s = bld.gate(TT_XOR, x, 2)
    n = bld.gate(TT_AND, 0, 1)
    t = bld.gate(TT_AND, x, 2)
    cy = bld.gate(TT_OR, n, t)
    circuit = bld.circuit([s, cy, x, n])

    cols = [0, 0, 0, 0]
    for w in range(8):
        a, b_, cin = w & 1, (w >> 1) & 1, (w >> 2) & 1
        vals = (a ^ b_ ^ cin, int(a + b_ + cin >= 2), a ^ b_, a & b_)
        for j, v in enumerate(vals):
            if v:
                cols[j] |= 1 << w
    return circuit, TargetSpec(3, 4, tuple(cols))


def c17() -> tuple[Circuit, TargetSpec]:
    bld = Builder(5)
    g0 = bld.gate(TT_NAND, 0, 2)
    g1 = bld.gate(TT_NAND, 2, 3)
    g2 = bld.gate(TT_NAND, 1, g1)
    g3 = bld.gate(TT_NAND, g1, 4)
    o0 = bld.gate(TT_NAND, g0, g2)
    o1 = bld.gate(TT_NAND, g2, g3)
    circuit = bld.circuit([o0, o1])
    resp = simulate(circuit)
    return circuit, TargetSpec(5, 2, tuple(resp.outputs))


def cm82a() -> tuple[Circuit, TargetSpec]:
    # Inputs cin a1 b1 a2 b2; outputs s1 s2 cout.
    bld = Builder(5)
    x1 = bld.gate(TT_XOR, 1, 2)
    s1 = bld.gate(TT_XOR, x1, 0)
    n1 = bld.gate(TT_AND, 1, 2)
    t1 = bld.gate(TT_AND, x1, 0)
    c1 = bld.gate(TT_OR, n1, t1)
    x2 = bld.gate(TT_XOR, 3, 4)
    s2 = bld.gate(TT_XOR, x2, c1)
    n2 = bld.gate(TT_AND, 3, 4)
    t2 = bld.gate(TT_AND, x2, c1)
    c2 = bld.gate(TT_OR, n2, t2)
    circuit = bld.circuit([s1, s2, c2])

    cols = [0, 0, 0]
    for w in range(32):
        cin = w & 1
        a = ((w >> 1) & 1) | ((w >> 3) & 1) << 1
        b = ((w >> 2) & 1) | ((w >> 4) & 1) << 1
        total = a + b + cin
        for j, v in enumerate(((total >> 0) & 1, (total >> 1) & 1, (total >> 2) & 1)):
            if v:
                cols[j] |= 1 << w
    return circuit, TargetSpec(5, 3, tuple(cols))


def _pair_decoders(bld: Builder, lo: int, hi: int) -> list[int]:
    # Minterms of a 2-bit value (lo, hi): 00, 01, 10, 11.
    return [
        bld.gate(TT_NOR, lo, hi),
        bld.gate(TT_GT, lo, hi),
        bld.gate(TT_LT, lo, hi),
        bld.gate(TT_AND, lo, hi),
    ]


def cm42a() -> tuple[Circuit, TargetSpec]:
    # BCD-to-decimal decoder, outputs active low; inputs a b c d (a = LSB).
    # Digits stop at 9, so the (c, d) = (1, 1) minterm is never needed.
    bld = Builder(4)
    ab = _pair_decoders(bld, 0, 1)
    cd = [
        bld.gate(TT_NOR, 2, 3),
        bld.gate(TT_GT, 2, 3),
        bld.gate(TT_LT, 2, 3),
    ]
    outs = [bld.gate(TT_NAND, ab[n & 3], cd[n >> 2]) for n in range(10)]
    circuit = bld.circuit(outs)

    cols = [0] * 10
    for w in range(16):
        for n in range(10):
            if not (w == n):
                cols[n] |= 1 << w
    return circuit, TargetSpec(4, 10, tuple(cols))


def cm138a() -> tuple[Circuit, TargetSpec]:
    # 3-to-8 decoder with enables g1 (active high), g2a/g2b (active low);
    # inputs a b c g1 g2a g2b, outputs active low.
    bld = Builder(6)
    e1 = bld.gate(TT_NOR, 4, 5)
    en = bld.gate(TT_AND, 3, e1)
    ab = _pair_decoders(bld, 0, 1)
    mc0 = bld.gate(TT_GT, en, 2)
    mc1 = bld.gate(TT_AND, en, 2)
    mc = [mc0, mc1]
    outs = [bld.gate(TT_NAND, ab[n & 3], mc[n >> 2]) for n in range(8)]
    circuit = bld.circuit(outs)

    cols = [0] * 8
    for w in range(64):
        addr = w & 7
        enabled = ((w >> 3) & 1) and not ((w >> 4) & 1) and not ((w >> 5) & 1)
        for n in range(8):
            if not (enabled and addr == n):
                cols[n] |= 1 << w
    return circuit, TargetSpec(6, 8, tuple(cols))


def decod() -> tuple[Circuit, TargetSpec]:
    # 4-to-16 one-hot decoder gated by an enable input (active high outputs).
    bld = Builder(5)
    ab = _pair_decoders(bld, 0, 1)
    cd = _pair_decoders(bld, 2, 3)
    abe = [bld.gate(TT_AND, t, 4) for t in ab]
    outs = [bld.gate(TT_AND, abe[n & 3], cd[n >> 2]) for n in range(16)]
    circuit = bld.circuit(outs)

    cols = [0] * 16
    for w in range(32):
        addr = w & 15
        if (w >> 4) & 1:
            cols[addr] |= 1 << w
    return circuit, TargetSpec(5, 16, tuple(cols))


def rd53() -> tuple[Circuit, TargetSpec]:
    # Ones count of five inputs as a 3-bit number, built from two full adders
    # plus a half adder chain.
    bld = Builder(5)

    def full_adder(a, b, c):
        x = bld.gate(TT_XOR, a, b)
        s = bld.gate(TT_XOR, x, c)
        n = bld.gate(TT_AND, a, b)
        t = bld.gate(TT_AND, x, c)
        cy = bld.gate(TT_OR, n, t)
        return s, cy

    s1, c1 = full_adder(0, 1, 2)
    s2, c2 = full_adder(s1, 3, 4)
    y1 = bld.gate(TT_XOR, c1, c2)
    y2 = bld.gate(TT_AND, c1, c2)
    circuit = bld.circuit([s2, y1, y2])

    cols = [0, 0, 0]
    for w in range(32):
        count = bin(w).count("1")
        for j in range(3):
            if (count >> j) & 1:
                cols[j] |= 1 << w
    return circuit, TargetSpec(5, 3, tuple(cols))


BENCHMARKS = {
    "mult2": mult2,
    "b1": b1,
    "c17": c17,
    "cm82a": cm82a,
    "cm42a": cm42a,
    "cm138a": cm138a,
    "decod": decod,
    "rd53": rd53,
}


def main() -> int:
    out_dir = Path(__file__).resolve().parent.parent / "benchmarks"
    out_dir.mkdir(exist_ok=True)
    for name, build in BENCHMARKS.items():
        circuit, target = build()
        resp = simulate(circuit)
        if resp.outputs != target.columns:
            raise SystemExit(f"{name}: seed netlist does not match its target table")
        (out_dir / f"{name}.pla").write_text(render_pla(target), encoding="utf-8")
        (out_dir / f"{name}.blif").write_text(
            render_blif(circuit, model=name), encoding="utf-8"
        )
        print(f"{name}: {circuit.r} in / {circuit.q} out, {len(circuit.tt)} gates")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
