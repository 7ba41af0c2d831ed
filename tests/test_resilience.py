import os
import random
import subprocess
import sys

import pytest

import rankgames
from oracles import budget_oracle, simulate_faults
from rankgames.arena import Arena
from rankgames.errors import InputError
from rankgames.extnat import INF
from rankgames.gen import random_fault_arena
from rankgames.resilience import (FaultArena, compute_val, max_resilience,
                                  resilience_rank)


class TestFaultArena:
    def test_fault_source_must_be_player0(self):
        arena = Arena({"s": 0, "u": 1}, [("s", "s"), ("u", "u")], "s")
        with pytest.raises(InputError, match="Player 0"):
            FaultArena(arena, {("u", "s")}, {"s"})

    def test_first_error_is_independent_of_the_hash_seed(self):
        # faults are checked in sorted order, so every hash seed reports the
        # least faulty pair
        script = ("from rankgames.arena import Arena\n"
                  "from rankgames.resilience import FaultArena\n"
                  "arena = Arena({'s': 0, 'u': 1, 'x': 0},\n"
                  "                 [('s', 'u'), ('u', 's'), ('x', 'x')], 's')\n"
                  "try:\n"
                  "    FaultArena(arena, {('u', 's'), ('s', 'zz'), ('x', 'q')}, {'s'})\n"
                  "except Exception as exc:\n"
                  "    print(exc)\n")
        src = os.path.dirname(os.path.dirname(rankgames.__file__))
        messages = set()
        for seed in range(6):
            proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                                  text=True, timeout=60,
                                  env=dict(os.environ, PYTHONHASHSEED=str(seed),
                                           PYTHONPATH=src))
            assert proc.returncode == 0, proc.stderr
            messages.add(proc.stdout)
        assert messages == {"fault ('s', 'zz') mentions an unknown vertex\n"}

    def test_fault_target_need_not_be_edge(self, fs):
        assert ("s", "u") in fs.faults
        assert ("s", "u") not in fs.arena.edges


class TestComputeVal:
    def test_no_faults_is_zero_or_infinite(self):
        rng = random.Random(1)
        for _ in range(20):
            fa = random_fault_arena(rng, rng.randint(1, 5), 0)
            val = compute_val(fa)
            from rankgames.arena import attractor
            base, _ = attractor(fa.arena, 1,
                                frozenset(fa.arena.vertices) - fa.safe)
            for v in fa.arena.vertices:
                assert val[v] == (0 if v in base else INF)

    def test_fs_two_rounds(self, fs):
        val = compute_val(fs)
        assert val == {"u": 0, "s": 1}

    def test_fe_three_rounds(self, fe):
        val = compute_val(fe)
        assert val == {"x": 0, "u": 1, "s": 2}


class TestResilienceRank:
    def test_all_infinite_gives_zero_ranks(self):
        arena = Arena({"s": 0}, [("s", "s")], "s")
        fa = FaultArena(arena, set(), {"s"})
        assert resilience_rank(fa) == {"s": 0}

    def test_fs_encoding(self, fs):
        assert resilience_rank(fs) == {"s": 1, "u": 2}

    def test_fe_encoding(self, fe):
        assert resilience_rank(fe) == {"s": 1, "u": 2, "x": 3}


class TestBudgetOracle:
    def test_budget_zero_is_plain_attractor(self):
        rng = random.Random(2)
        from rankgames.arena import attractor
        for _ in range(20):
            fa = random_fault_arena(rng, rng.randint(1, 5), 3)
            base, _ = attractor(fa.arena, 1,
                                frozenset(fa.arena.vertices) - fa.safe)
            for v in fa.arena.vertices:
                assert budget_oracle(fa, v, 0) == (v in base)

    def test_fs_one_fault_cracks_s(self, fs):
        assert not budget_oracle(fs, "s", 0)
        assert budget_oracle(fs, "s", 1)

    def test_val_equals_least_winning_budget(self):
        rng = random.Random(3)
        for _ in range(40):
            fa = random_fault_arena(rng, rng.randint(1, 6), 4)
            val = compute_val(fa)
            n = len(fa.arena)
            for v in fa.arena.vertices:
                oracle = INF
                for k in range(n):
                    if budget_oracle(fa, v, k):
                        oracle = k
                        break
                assert val[v] == oracle, (fa, v)


class TestMaxResilience:
    def test_no_faults_and_safe_is_unbounded(self):
        arena = Arena({"s": 0, "u": 0}, [("s", "s"), ("u", "s")], "s")
        fa = FaultArena(arena, set(), {"s", "u"})
        res = max_resilience(fa, "sup")
        assert res.resilience is INF

    def test_losing_safety_game(self):
        arena = Arena({"s": 0, "u": 0}, [("s", "u"), ("u", "u")], "s")
        fa = FaultArena(arena, set(), {"s"})
        res = max_resilience(fa, "sup")
        assert res.player1_wins
        assert res.resilience == 0

    def test_fs_tolerates_one_fault(self, fs):
        res = max_resilience(fs, "sup")
        assert res.bound == 1
        assert res.resilience == 1

    def test_fe_sup_and_eventual(self, fe):
        sup = max_resilience(fe, "sup")
        lim = max_resilience(fe, "lim")
        assert (sup.bound, sup.resilience) == (2, 1)
        assert (lim.bound, lim.resilience) == (1, 2)

    def test_fs_certified_by_simulation(self, fs):
        res = max_resilience(fs, "sup")
        n = len(fs.arena)
        assert simulate_faults(fs, res.strategy, 0, 2 * n).safe
        crash = simulate_faults(fs, res.strategy, 1, 2 * n)
        assert not crash.safe and crash.witness == ("s", "u")

    def test_fe_sup_certified_by_simulation(self, fe):
        res = max_resilience(fe, "sup")
        n = len(fe.arena)
        assert simulate_faults(fe, res.strategy, 0, 2 * n).safe
        assert not simulate_faults(fe, res.strategy, 1, 2 * n).safe

    def test_fe_eventual_certified_from_recovered_vertex(self, fe):
        # after the start-up move to s, one further fault is always survivable
        res = max_resilience(fe, "lim")
        recovered = FaultArena(fe.arena.with_initial("s"), fe.faults, fe.safe)
        n = len(fe.arena)
        assert simulate_faults(recovered, res.strategy, 1, 2 * n).safe
        assert not simulate_faults(recovered, res.strategy, 2, 2 * n).safe
