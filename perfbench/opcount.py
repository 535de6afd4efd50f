"""Analytic operation counts for the transformer encoder.

Counts cover the matrix products of `spotground.nn.encoder_forward_batch`
and `encoder_backward` only: element-wise work (softmax, layer norm,
ReLU, dropout, Adam) is left out. A product of an (m, k) by a (k, n)
operand costs 2*m*k*n FLOPs and moves 8*(m*k + k*n + m*n) bytes in
float64 (each operand read once, the result written once). These are
computed, not measured, numbers: they say how much work a call asked
for, so that measured time can be turned into a rate.
"""

from __future__ import annotations

from dataclasses import dataclass

FLOAT_BYTES = 8


@dataclass(frozen=True)
class OpCount:
    flops: int
    bytes: int

    def __add__(self, other: "OpCount") -> "OpCount":
        return OpCount(self.flops + other.flops, self.bytes + other.bytes)

    def scaled(self, k: int) -> "OpCount":
        return OpCount(self.flops * k, self.bytes * k)


ZERO = OpCount(0, 0)


def matmul(batch: int, m: int, k: int, n: int) -> OpCount:
    """`batch` independent (m, k) @ (k, n) products."""
    return OpCount(2 * batch * m * k * n, FLOAT_BYTES * batch * (m * k + k * n + m * n))


def _forward_products(config, B: int, T: int) -> list[tuple[str, OpCount]]:
    """Every forward product as (role, count); roles name the backward rule."""
    dm, dh, H = config.model_dim, config.hidden_dim, config.num_heads
    dk = dm // H
    rows = B * T
    out = [("input", matmul(1, rows, config.input_dim, dm))]
    for _ in range(config.num_layers):
        out += [("dense", matmul(1, rows, dm, dm))] * 3          # Q, K, V
        out.append(("attn", matmul(B * H, T, dk, T)))            # scores
        out.append(("attn", matmul(B * H, T, T, dk)))            # context
        out.append(("dense", matmul(1, rows, dm, dm)))           # output projection
        out.append(("dense", matmul(1, rows, dm, dh)))           # FFN in
        out.append(("dense", matmul(1, rows, dh, dm)))           # FFN out
    out.append(("dense", matmul(1, B, dm, config.output_dim)))   # head
    return out


def encoder_forward(config, B: int, T: int) -> OpCount:
    """Matmul work of one `encoder_forward_batch` call on a (B, T, D) input."""
    total = ZERO
    for _, c in _forward_products(config, B, T):
        total = total + c
    return total


def encoder_backward(config, B: int, T: int) -> OpCount:
    """Matmul work of one `encoder_backward` call.

    Every forward product needs two products of its size backwards (one
    for each operand's gradient), except the input projection, whose
    input gradient is never formed.
    """
    total = ZERO
    for role, c in _forward_products(config, B, T):
        total = total + (c if role == "input" else c.scaled(2))
    return total
