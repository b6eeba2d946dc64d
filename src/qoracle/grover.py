"""Grover-search assembly and the deck-of-cards demo queries.

Cards are encoded on six bits: two suit bits followed by four rank bits.
Search circuits mark states through an output-qubit oracle whose ancilla is
prepared in the |-> state, turning the XOR write-back into a phase flip.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .circuit import Circuit, Gate, h, mcz, x
from .embed import ROLE_ANCILLA, ROLE_INPUT, ROLE_OUTPUT
from .errors import QOracleError
from .pla import PlaTable
from .sim import StateVector, apply_statevector, zero_state

SUIT_CODES = {"clubs": 0b00, "spades": 0b01, "diamonds": 0b10, "hearts": 0b11}
RANK_CODES = {
    "ace": 1, "2": 2, "3": 3, "4": 4, "5": 5, "6": 6, "7": 7, "8": 8,
    "9": 9, "10": 10, "jack": 11, "queen": 12, "king": 13,
}
_VALID_RANKS = frozenset(range(1, 14))

CARD_BITS = 6


@dataclass(frozen=True)
class CardQuery:
    """A deck query: either field may be None to match any suit or rank."""

    suit: int | None = None
    rank: int | None = None


def parse_query(text: str) -> CardQuery:
    """Parse 'suit=<name>,rank=<name>' query strings."""
    suit = rank = None
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        key, _, value = part.partition("=")
        key, value = key.strip().lower(), value.strip().lower()
        if key == "suit":
            if value not in SUIT_CODES:
                raise ValueError(f"unknown suit {value!r}")
            suit = SUIT_CODES[value]
        elif key == "rank":
            if value not in RANK_CODES:
                raise QOracleError(f"unknown rank {value!r}")
            rank = RANK_CODES[value]
        else:
            raise ValueError(f"unknown query key {key!r}")
    if suit is None and rank is None:
        raise ValueError("query needs a suit, a rank, or both")
    return CardQuery(suit=suit, rank=rank)


def card_query_to_pla(query: CardQuery) -> PlaTable:
    """Single-output predicate over the six card bits, 1 on matching cards."""
    if query.suit is None and query.rank is None:
        raise ValueError("query needs a suit, a rank, or both")
    if query.rank is not None and query.rank not in _VALID_RANKS:
        raise QOracleError(f"rank code {query.rank:04b} is unused")
    care = (0 if query.suit is None else 0b110000) | (0 if query.rank is None else 0b001111)
    value = (query.suit or 0) << 4 | (query.rank or 0)
    return PlaTable(n=CARD_BITS, m=1, cubes=[(care, value, 1, 0)])


def optimal_iterations(n_items: int, marked: int) -> int:
    """floor((pi/4) sqrt(N/M)) search iterations, at least one."""
    if not 1 <= marked <= n_items:
        raise ValueError("marked count must be between 1 and the item count")
    return max(1, math.floor(math.pi / 4 * math.sqrt(n_items / marked)))


def predicted_success(n_items: int, marked: int, iterations: int) -> float:
    """Closed-form success probability after ``iterations`` Grover rounds."""
    theta = 2.0 * math.asin(math.sqrt(marked / n_items))
    return math.sin((2 * iterations + 1) * theta / 2.0) ** 2


@dataclass
class GroverPlan:
    marked_count: int
    iterations: int
    predicted: float


def plan_search(n: int, marked: int, iterations: int | None = None) -> GroverPlan:
    """Pick (or accept) an iteration count and predict its success rate."""
    if iterations is not None and iterations < 0:
        raise ValueError("iteration count cannot be negative")
    r = optimal_iterations(1 << n, marked) if iterations is None else iterations
    return GroverPlan(
        marked_count=marked,
        iterations=r,
        predicted=predicted_success(1 << n, marked, r),
    )


def diffusion_gates(n: int) -> list[Gate]:
    """Inversion about the mean on an n-qubit register; depends only on n."""
    gates: list[Gate] = [h(q) for q in range(n)]
    gates += [x(q) for q in range(n)]
    gates.append(mcz(n - 1, (1 << (n - 1)) - 1))
    gates += [x(q) for q in range(n)]
    gates += [h(q) for q in range(n)]
    return gates


def _check_oracle_shape(oracle: Circuit) -> int:
    n = oracle.width - 1
    if n < 1:
        raise QOracleError("oracle must have at least one search qubit")
    expect_in = (ROLE_INPUT,) * n + (ROLE_ANCILLA,)
    expect_out = (ROLE_INPUT,) * n + (ROLE_OUTPUT,)
    if oracle.roles_in != expect_in or oracle.roles_out != expect_out:
        raise QOracleError(
            "need a domain-preserving oracle with one trailing output qubit"
        )
    return n


def build_grover(oracle: Circuit, iterations: int) -> Circuit:
    """Assemble superposition, r x (oracle + diffusion) over n+1 qubits.

    The output qubit is prepared in |-> so the oracle's XOR write-back
    becomes a phase flip on marked states; measurement is external.
    """
    n = _check_oracle_shape(oracle)
    gates: list[Gate] = [x(n), h(n)]
    gates += [h(q) for q in range(n)]
    body = list(oracle.gates) + diffusion_gates(n)
    for _ in range(max(iterations, 0)):
        gates.extend(body)
    return Circuit(
        width=n + 1,
        gates=gates,
        roles_in=oracle.roles_in,
        roles_out=oracle.roles_out,
        source=oracle.source,
        method="grover",
    )


def search_state(circuit: Circuit) -> StateVector:
    """Run a search circuit on the all-zero input state."""
    return apply_statevector(circuit, zero_state(circuit.width))
