"""Session fixtures: benchmark datasets at working scale, cached network
fits shared across test modules, and a private CSV parse cache."""

import sys
from pathlib import Path

import numpy as np
import pytest

from atdev import SimSpec, fit_mlp, generate

sys.path.insert(0, str(Path(__file__).parent))

from helpers import take  # noqa: E402

DESK_N = 100_000
DESK_SEED = 5

SCORER = Path(__file__).parent / "external_scorer.py"
BRUTEFORCE = Path(__file__).parent / "fixtures" / "dgsm_bruteforce.py"


@pytest.fixture(scope="session", autouse=True)
def private_parse_cache(tmp_path_factory):
    """Points XDG_CACHE_HOME at a session tmp dir, so that no test, and no
    CLI process a test starts, writes the user's ~/.cache."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("xdg")))
        yield


def _desk(case: str):
    return generate(SimSpec(case=case, n=DESK_N, seed=DESK_SEED))


@pytest.fixture(scope="session")
def d61():
    """Five independent uniforms, additive response with one pairwise
    interaction; full working scale."""
    return _desk("indep_61")


@pytest.fixture(scope="session")
def d621():
    """Quadratic-plus-linear response over three predictors with two of
    them linearly tied to the first."""
    return _desk("additive_621")


@pytest.fixture(scope="session")
def d622():
    """Interaction response over a strongly negatively correlated pair
    plus one independent spare column."""
    return _desk("interaction_622")


@pytest.fixture(scope="session")
def d623():
    """Five-variable polynomial with two derived columns shadowing two
    model inputs."""
    return _desk("complex_623")


@pytest.fixture(scope="session")
def d71i():
    """Five independent uniforms scored by the five-input polynomial."""
    return _desk("le_71_indep")


@pytest.fixture(scope="session")
def d71c():
    return _desk("le_71_corr")


def _fit_case(case: str):
    # 22000 rows split 20000 train / 2000 validation; seeds fixed so the
    # fitted weights are reproducible across runs.
    full = generate(SimSpec(case=case, n=22_000, seed=7))
    train = take(full, np.arange(20_000))
    valid = take(full, np.arange(20_000, 22_000))
    model, report = fit_mlp(train, valid, seed=3)
    return model, report, train


@pytest.fixture(scope="session")
def mlp61():
    return _fit_case("indep_61")


@pytest.fixture(scope="session")
def mlp621():
    return _fit_case("additive_621")


@pytest.fixture(scope="session")
def mlp622():
    return _fit_case("interaction_622")


@pytest.fixture(scope="session")
def mlp623():
    return _fit_case("complex_623")


@pytest.fixture(scope="session")
def scorer_path():
    assert SCORER.exists()
    return str(SCORER)
