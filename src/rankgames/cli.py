"""Command-line front end: solve, optimize, eval, verify, resilience.

Exit codes: 0 when Player 0 prevails (game won, strategy certified,
resilient controller found), 1 when Player 1 does, 2 on usage or input
errors.  Reports are deterministic: identical invocations print
byte-identical output.

``main`` pauses the cyclic garbage collector while the command runs and
then restores the caller's setting.  No command leaves a reference cycle
(``tests/test_cli_bytes.py`` checks every command), so reference counting
frees all a command builds, and a collection during it would only rescan
live tables.
"""

from __future__ import annotations

import argparse
import gc
import sys
from typing import Optional

from . import fileformat as ff
from .arena import Lasso
from .errors import CapacityError, InputError
from .objectives import eval_qualitative
from .qualsolve import solve_objective
from .ranked import RankedCondition, optimize as optimize_ranked, solve_with_bound
from .resilience import max_resilience
from .rrcost import optimize as optimize_costrr, solve_with_bound as solve_costrr
from .verify import verify_strategy


def _print_regions(res, out):
    print("region 0:", ", ".join(str(v) for v in sorted(res.region_0)), file=out)
    print("region 1:", ", ".join(str(v) for v in sorted(res.region_1)), file=out)


def _write_out(path: Optional[str], strategy, out) -> None:
    if path:
        ff.write_strategy(path, strategy)
        print(f"strategy written to {path}", file=out)


def cmd_solve(game, args, out) -> int:
    if game.kind == "fault":
        raise InputError("games with faults are solved by the resilience command")
    if game.kind == "qualitative":
        if args.bound is not None:
            raise InputError("qualitative games take no --bound")
        res = solve_objective(game.arena, game.objective)
    elif args.bound is None:
        raise InputError("quantitative games need --bound")
    elif game.kind == "ranked":
        res = solve_with_bound(game.ranked, args.bound)
    elif args.regions:
        # the cost-RR search decides the initial vertex only
        raise InputError("response-cost games take no --regions")
    else:
        res = solve_costrr(game.costrr, args.bound)
    winner = 0 if game.arena.initial in res.region_0 else 1
    print(f"Player {winner} wins", file=out)
    if args.regions:
        _print_regions(res, out)
    if args.out:
        _write_out(args.out, res.strategy_of(winner), out)
    return winner


def _condition(game):
    """The claim a strategy for the game is verified against."""
    if game.kind == "ranked":
        return RankedCondition(game.ranked.objective, game.ranked.rk, game.ranked.mode)
    if game.kind == "costrr":
        return game.costrr.spec
    return game.objective


def cmd_optimize(game, args, out) -> int:
    if game.kind == "ranked":
        res = optimize_ranked(game.ranked)
    elif game.kind == "costrr":
        res = optimize_costrr(game.costrr)
    else:
        raise InputError("optimize needs a quantitative game (rank or costs section)")
    if res.winner == 1:
        print("Player 1 wins", file=out)
    else:
        print(f"minimal cost: {res.cost}", file=out)
        verdict = verify_strategy(game.arena, _condition(game), res.strategy, bound=res.cost)
        if not verdict.certified:
            raise InputError("internal error: optimal strategy failed certification")
        print(f"certified cost: {res.cost}", file=out)
    _write_out(args.out, res.strategy, out)
    return res.winner


def _parse_lasso(args, game) -> Lasso:
    prefix = tuple(args.prefix.split(",")) if args.prefix else ()
    if not args.loop:
        raise InputError("--loop is required")
    loop = tuple(args.loop.split(","))
    return Lasso(prefix, loop).check_in(game.arena)


def cmd_eval(game, args, out) -> int:
    lasso = _parse_lasso(args, game)
    if game.kind == "ranked":
        print(game.ranked.lasso_cost(lasso), file=out)
    elif game.kind == "costrr":
        print(game.costrr.lasso_cost(lasso), file=out)
    else:
        win = eval_qualitative(game.objective, lasso)
        print("Player 0 wins play" if win else "Player 1 wins play", file=out)
    return 0


def cmd_verify(game, args, out) -> int:
    strategy = ff.read_strategy(args.strategy, game.arena)
    bound = args.bound
    if game.kind == "ranked" and bound is None:
        raise InputError("rank-cost verification needs --bound")
    if game.kind == "costrr" and bound is None:
        raise InputError("response-cost verification needs --bound")
    if game.kind in ("qualitative", "fault") and bound is not None:
        raise InputError("qualitative verification takes no --bound")
    verdict = verify_strategy(game.arena, _condition(game), strategy, bound=bound)
    if verdict.certified:
        if bound is not None:
            print(f"certified (cost <= {bound})", file=out)
        else:
            print("certified", file=out)
        return 0
    w = verdict.witness
    print("refuted", file=out)
    print("witness prefix:", ",".join(str(v) for v in w.prefix), file=out)
    print("witness loop:", ",".join(str(v) for v in w.loop), file=out)
    return 1


def cmd_resilience(game, args, out) -> int:
    if game.kind != "fault":
        raise InputError("resilience needs a game with a faults section")
    res = max_resilience(game.fault, "lim" if args.eventual else "sup")
    out.write("".join([f"val {v} = {res.val[v]}\n" for v in game.arena.vertices]))
    if res.player1_wins:
        print("Player 1 wins the safety game", file=out)
    else:
        print(f"optimal bound: {res.bound}", file=out)
    print(f"resilience: {res.resilience}", file=out)
    _write_out(args.out, res.strategy, out)
    return int(res.player1_wins)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rankgames",
        description="Solve, optimize and verify two-player infinite games on graphs.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="decide the winner (at a bound, if quantitative)")
    p.add_argument("game")
    p.add_argument("--bound", type=int)
    p.add_argument("--regions", action="store_true")
    p.add_argument("--out", help="write the winner's strategy to this file")
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("optimize", help="minimal achievable cost and optimal strategy")
    p.add_argument("game")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_optimize)

    p = sub.add_parser("eval", help="evaluate one ultimately periodic play")
    p.add_argument("game")
    p.add_argument("--prefix", default="")
    p.add_argument("--loop", required=True)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("verify", help="certify or refute a strategy file")
    p.add_argument("game")
    p.add_argument("--strategy", required=True)
    p.add_argument("--bound", type=int)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("resilience", help="fault tolerance of an optimal controller")
    p.add_argument("game")
    p.add_argument("--eventual", action="store_true")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_resilience)
    return parser


_parser: Optional[argparse.ArgumentParser] = None  # built by the first main call


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    try:
        args = _parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    # a command leaves no reference cycle, so reference counting frees
    # its tables and a cyclic collection inside it only rescans them
    collecting = gc.isenabled()
    gc.disable()
    try:
        return args.fn(ff.parse_game(args.game), args, sys.stdout)
    except (InputError, CapacityError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
