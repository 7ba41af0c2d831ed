"""The extended naturals: order, max/min, rendering and input checks of ``INF``."""

import os
import subprocess
import sys

import pytest

import rankgames
from rankgames.errors import InputError
from rankgames.extnat import INF, check_extnat, is_finite
from rankgames.quantred import Cap, QuantReduction
from rankgames.rrcost import build_reduction


def test_inf_is_above_every_int():
    assert 10**400 < INF
    assert not INF < INF
    assert INF <= INF


def test_inf_is_a_fixed_point_of_max():
    assert max(3, INF) is INF
    assert min(3, INF) == 3


def test_is_finite():
    assert is_finite(0)
    assert not is_finite(INF)


def test_inf_renders_as_inf():
    assert str(INF) == repr(INF) == f"{INF}" == "inf"


def test_check_extnat_accepts_naturals_and_inf():
    assert check_extnat(0) == 0
    assert check_extnat(7) == 7
    assert check_extnat(INF) is INF


@pytest.mark.parametrize("bad", [-1, True, 1.5, "3", None, float("nan"), float("-inf")])
def test_check_extnat_rejects(bad):
    with pytest.raises(ValueError):
        check_extnat(bad)


def test_bad_cost_values_raise_input_error(a2_game):
    # InputError is what the CLI turns into exit 2
    with pytest.raises(InputError):
        Cap(-1)
    with pytest.raises(InputError):
        Cap(1.5)
    r = build_reduction(a2_game, 3)
    with pytest.raises(InputError):
        QuantReduction(r.memory, r.f, True, r.source, r.target)
    assert check_extnat(float("inf")) is INF


_HASH_PROBE = ("from rankgames.extnat import INF; "
               "print(hash(INF)); print(list({INF, 1, 2, 3, 5, 8}))")


def test_inf_hashes_alike_under_every_hash_seed():
    src = os.path.dirname(os.path.dirname(rankgames.__file__))
    outs = [subprocess.run([sys.executable, "-c", _HASH_PROBE], capture_output=True, text=True,
                           timeout=60, check=True,
                           env=dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)).stdout
            for seed in ("0", "2")]
    assert outs[0] == outs[1]
