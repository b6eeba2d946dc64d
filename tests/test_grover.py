"""Search assembly: card queries, iteration planning, amplification."""
from __future__ import annotations

import numpy as np
import pytest

from qoracle import grover, pla, sim
from qoracle.cli import main, run_synthesis
from qoracle.errors import QOracleError

from conftest import cube


def oracle_for(query: str):
    table = grover.card_query_to_pla(grover.parse_query(query))
    return run_synthesis(table, "esop", source=query).circuit


def test_card_query_specific_card():
    table = grover.card_query_to_pla(grover.CardQuery(suit=0b10, rank=10))
    assert table.cubes == [cube("101010", "1")]


def test_card_query_suit_only():
    table = grover.card_query_to_pla(grover.CardQuery(suit=0b00))
    assert table.cubes[0] == cube("00----", "1")
    spec = pla.expand(table)
    assert spec.entries.sum() == 16


def test_card_query_invalid_rank():
    with pytest.raises(QOracleError, match="rank code 0000 is unused"):
        grover.card_query_to_pla(grover.CardQuery(rank=0))
    with pytest.raises(QOracleError, match="rank code 1110 is unused"):
        grover.card_query_to_pla(grover.CardQuery(rank=0b1110))
    with pytest.raises(QOracleError, match="query needs a suit, a rank, or both"):
        grover.card_query_to_pla(grover.CardQuery())


def test_parse_query_strings():
    assert grover.parse_query("suit=diamonds,rank=10") == grover.CardQuery(0b10, 10)
    assert grover.parse_query("suit=clubs") == grover.CardQuery(0b00, None)
    assert grover.parse_query("rank=ace") == grover.CardQuery(None, 1)
    with pytest.raises(QOracleError, match="unknown rank '15'"):
        grover.parse_query("rank=15")
    with pytest.raises(QOracleError, match="unknown suit 'stars'"):
        grover.parse_query("suit=stars")


@pytest.mark.parametrize("query,message", [
    ("suit=jokers", "unknown suit 'jokers'"),
    ("rank=15", "unknown rank '15'"),
    ("colour=red", "unknown query key 'colour'"),
    ("", "query needs a suit, a rank, or both"),
    (" , ", "query needs a suit, a rank, or both"),
    ("suit=hearts,suit=clubs", "repeated query key 'suit'"),
], ids=["unknown-suit", "unknown-rank", "unknown-key", "empty", "blank-parts", "repeated-key"])
def test_malformed_queries_are_refused(tmp_path, capsys, query, message):
    with pytest.raises(QOracleError, match=message):
        grover.parse_query(query)
    out = tmp_path / "hist.csv"
    assert main(["grover", "--deck", "--query", query, "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
    assert not out.exists()


def test_optimal_iterations():
    assert grover.optimal_iterations(64, 1) == 6
    assert grover.optimal_iterations(64, 16) == 1
    assert grover.optimal_iterations(4, 4) == 1


def test_predicted_success_values():
    assert abs(grover.predicted_success(64, 1, 6) - 0.9966) < 1e-4
    assert abs(grover.predicted_success(64, 16, 1) - 1.0) < 1e-9
    for r in (0, 1, 5):
        assert abs(grover.predicted_success(32, 32, r) - 1.0) < 1e-12


def test_build_grover_diamonds_success_probability():
    search = grover.build_grover(oracle_for("suit=diamonds,rank=10"), 6)
    dist = sim.marginal_probabilities(grover.search_state(search), 6)
    assert abs(dist[0b101010] - 0.9966) < 1e-3


def test_build_grover_clubs_distribution():
    search = grover.build_grover(oracle_for("suit=clubs"), 1)
    dist = sim.marginal_probabilities(grover.search_state(search), 6)
    marked = [x for x in range(64) if x >> 4 == 0]
    assert sum(dist[x] for x in marked) >= 0.999
    for x in marked:
        assert abs(dist[x] - 1 / 16) < 1e-6


def test_build_grover_zero_iterations_is_uniform():
    search = grover.build_grover(oracle_for("suit=diamonds,rank=10"), 0)
    dist = sim.marginal_probabilities(grover.search_state(search), 6)
    assert np.allclose(dist, 1 / 64, atol=1e-9)


def test_build_grover_rejects_bad_shape():
    table = pla.parse_pla(".i 2\n.o 2\n11 11\n.e")
    oracle = run_synthesis(table, "esop").circuit
    shape = "need a domain-preserving oracle with one trailing output qubit"
    with pytest.raises(QOracleError, match=shape):
        grover.build_grover(oracle, 1)


def test_diffusion_depends_only_on_width():
    a = oracle_for("suit=diamonds,rank=10")
    b = oracle_for("suit=hearts,rank=king")
    ga = grover.build_grover(a, 1).gates
    gb = grover.build_grover(b, 1).gates
    assert ga[: 6 + 1] == gb[: 6 + 1]  # shared preparation
    assert ga[len(ga) - 25 :] == gb[len(gb) - 25 :]  # shared diffusion tail


def test_predicted_matches_measured_over_grid():
    # Predicate marking the first M of 2^n items, synthesized through the
    # ESOP pipeline, amplified r times, compared against the closed form.
    for n in (2, 3, 4, 5, 6):
        for marked in (1, 2, 4, 8, 16):
            if marked > 1 << n:
                continue
            cubes = [
                cube(format(x, f"0{n}b"), "1") for x in range(marked)
            ]
            table = pla.PlaTable(n=n, m=1, cubes=cubes)
            oracle = run_synthesis(table, "esop").circuit
            for r in range(0, 9, 2):
                search = grover.build_grover(oracle, r)
                dist = sim.marginal_probabilities(grover.search_state(search), n)
                measured = float(sum(dist[:marked]))
                predicted = grover.predicted_success(1 << n, marked, r)
                assert abs(measured - predicted) < 1e-6, (n, marked, r)


def test_sampling_reproducible():
    search = grover.build_grover(oracle_for("suit=diamonds,rank=10"), 6)
    state = grover.search_state(search)
    a = sim.sample(state, 1024, seed=11)
    assert np.array_equal(a, sim.sample(state, 1024, seed=11))
    assert a.sum() == 1024
