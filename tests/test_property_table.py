"""The property table is the one place a fairness property is declared.

``AXIOM_NAMES`` is the table's key order, and a failed verdict's witness
holds the checker's arguments after ``index`` first, in order, under the
checker's own parameter names.  ``recheck_witness`` replays every property
through that convention alone.
"""
from __future__ import annotations

import functools
import inspect
from dataclasses import replace

import pytest

from streamshare import AXIOM_NAMES, ProblemGenerator, recheck_witness, standard_indices
from streamshare.axioms import _PROPERTIES, axiom_matrix

SEEDS = (0, 1, 2)


@functools.lru_cache(maxsize=None)
def cli_matrix(seed: int) -> dict:
    """The matrix ``streamshare axioms --budget 100 --seed <seed>`` prints."""
    chosen = [index for name, index in standard_indices(20, 60).items() if name != "banded"]
    generator = ProblemGenerator(seed=seed, max_artists=6, max_users=6)
    return axiom_matrix(chosen, generator=generator, budget=100)


def failures(seed: int) -> list:
    indices = {index.name: index for index in standard_indices(20, 60).values()}
    return [(indices[name], verdict) for (name, _), verdict in cli_matrix(seed).items()
            if verdict.failed]


def arguments(axiom: str) -> list[str]:
    """The checker's parameter names after ``index``."""
    return list(inspect.signature(_PROPERTIES[axiom].check).parameters)[1:]


def test_axiom_names_are_the_table_keys_in_order():
    assert AXIOM_NAMES == tuple(_PROPERTIES) == (
        "homogeneity", "additivity", "equal-individual-impact", "equal-global-impact",
        "reasonable-lower-bound", "click-fraud-proofness", "core-selection")


@pytest.mark.parametrize("seed", SEEDS)
def test_every_fail_cell_replays_through_its_checker_parameters(seed):
    failed = failures(seed)
    assert {verdict.axiom for _, verdict in failed} == set(AXIOM_NAMES)
    for index, verdict in failed:
        names = arguments(verdict.axiom)
        assert list(verdict.witness)[:len(names)] == names, (index.name, verdict.axiom)
        assert recheck_witness(index, verdict), (index.name, verdict.axiom)


@pytest.mark.parametrize("axiom", AXIOM_NAMES)
def test_a_witness_missing_an_argument_raises_key_error(axiom):
    index, verdict = next((index, verdict) for index, verdict in failures(0)
                          if verdict.axiom == axiom)
    for name in arguments(axiom):
        witness = {key: value for key, value in verdict.witness.items() if key != name}
        with pytest.raises(KeyError):
            recheck_witness(index, replace(verdict, witness=witness))
