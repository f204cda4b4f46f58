"""Command-line entry point: train, score, select, correlate, simulate.

Exit codes: 0 success, 1 usage or input error, 2 numerical failure. A
failure writes exactly one stderr line.
"""

from __future__ import annotations

import argparse
import sys
import warnings

from .errors import InfoselectError, NumericalError
from .harness import (
    EVAL_SOURCES,
    SELECT_METHODS,
    _FIELD_KEYS,
    cmd_correlate,
    cmd_score,
    cmd_select,
    cmd_simulate,
    cmd_train,
    load_config,
)

_COMMANDS = {
    "train": cmd_train,
    "score": cmd_score,
    "select": cmd_select,
    "correlate": cmd_correlate,
    "simulate": cmd_simulate,
}


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; the contract reserves 2 for
    # numerical failures, so remap to 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _add_config_flags(sub: argparse.ArgumentParser):
    sub.add_argument("--config", metavar="PATH", help="flat JSON config file")
    sub.add_argument("--seed", type=int)
    sub.add_argument("--head", choices=("categorical", "gaussian"))
    sub.add_argument("--classes", type=int)
    sub.add_argument("--dim", type=int)
    sub.add_argument("--n", type=int, help="synthetic dataset size")
    sub.add_argument("--class-sep", type=float, dest="class_sep")
    sub.add_argument("--lambda", type=float, dest="lam", help="prior precision")
    sub.add_argument("--train-size", type=int, dest="train_size")
    sub.add_argument("--pool-size", type=int, dest="pool_size")
    sub.add_argument("--eval-size", type=int, dest="eval_size")
    sub.add_argument("--eval-source", choices=EVAL_SOURCES, dest="eval_source")
    sub.add_argument("--methods", help="comma-separated score method ids")
    sub.add_argument("--mc-samples", type=int, dest="mc_samples")
    sub.add_argument("--method", help=f"selection method, one of {SELECT_METHODS}")
    sub.add_argument("--batch-size", type=int, dest="batch_size")
    sub.add_argument("--rounds", type=int)
    sub.add_argument("--data", metavar="PATH", help="dataset CSV instead of synthetic")
    sub.add_argument("--model", metavar="PATH", help="model JSON instead of refitting")
    sub.add_argument("--out", metavar="DIR", help="output directory")


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The CLI's parser; with a command name, only that command gets its flags."""
    parser = _Parser(
        prog="infoselect",
        description="Information-theoretic data subset selection for GLMs.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("train", "fit the train split, write model.json"),
        ("score", "score the pool with each method, write scores.csv/json"),
        ("select", "pick a batch from the pool, write select.json"),
        ("correlate", "score the pool and write the Spearman matrix"),
        ("simulate", "run the label-and-refit loop, write simulate.csv"),
    ):
        sub = subs.add_parser(name, help=help_text)
        if command in (None, name):
            _add_config_flags(sub)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # argparse reads everything after a command name with that command's parser
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    args = build_parser(command).parse_args(argv)
    # Each flag's argparse dest is its ExperimentConfig attribute name.
    overrides = {
        key: getattr(args, attr)
        for key, attr in _FIELD_KEYS.items()
        if getattr(args, attr) is not None
    }
    # Warnings raised on the way (numpy overflow, an off-mode posterior) are
    # held back: a failure's error line stands for them, a success replays them.
    with warnings.catch_warnings(record=True) as caught:
        try:
            config = load_config(args.config, overrides)
            result = _COMMANDS[args.command](config)
        except NumericalError as e:
            print(f"infoselect {args.command}: numerical failure: {e}", file=sys.stderr)
            return 2
        # numpy refuses an allocation that a huge size flag asks for
        except (InfoselectError, OSError, MemoryError) as e:
            print(f"infoselect {args.command}: error: {e}", file=sys.stderr)
            return 1
    for w in caught:
        warnings.showwarning(w.message, w.category, w.filename, w.lineno)
    paths = result if isinstance(result, tuple) else (result,)
    for path in paths:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
