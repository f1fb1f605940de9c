"""Command-line entry points.

    galasim run <config> [--seed N] [--out DIR] [--parallel K]
    galasim simmatrix <config> [--out DIR]
    galasim gradcheck [--trials N] [--epsilon E] [--seed N]

Exit codes: 0 success, 2 configuration error, 3 numeric abort or a worker
process lost mid-round (or, for `run`, any failed run of the sweep: a run
whose source worker dies fails like a numeric abort), 4 I/O error.
"""

from __future__ import annotations

import argparse
import csv
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .discrepancy import GroupClassifier, away_from_kinks, igd_loss, random_partition
from .errors import ConfigError, GalaError, NumericError, ParseError, WorkerError
from .experiment import _atomic_write, build_domains, parse_config, run_experiment
from .federation import similarity_matrix
from .nn import (
    Classifier,
    FeatureExtractor,
    finite_difference_grad,
    grad_check,
    relative_grad_error,
)


def _cmd_run(args) -> int:
    spec = parse_config(args.config)
    if args.out is not None:
        spec.output_dir = args.out
    if args.seed is not None:
        spec.protocol = replace(spec.protocol, seed=args.seed)
    return run_experiment(spec, parallel=args.parallel)


def _cmd_simmatrix(args) -> int:
    spec = parse_config(args.config)
    if args.out is not None:
        spec.output_dir = args.out
    domains = build_domains(spec, cache_dir=Path(spec.output_dir) / "cache")
    names = [e.name for e in spec.domains]
    matrix = similarity_matrix([domains[n] for n in names], spec.protocol)
    out_path = Path(spec.output_dir) / "simmatrix.csv"
    out_path.parent.mkdir(parents=True, exist_ok=True)

    def write(tmp):
        with open(tmp, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["train\\eval"] + names)
            for name, row in zip(names, matrix):
                writer.writerow([name] + [repr(float(v)) for v in row])

    _atomic_write(out_path, write)  # an error midway leaves the previous matrix
    width = max(8, max(len(n) for n in names) + 2)
    print("cross-domain accuracy (row = trained on, column = evaluated on)")
    print(" " * width + "".join(f"{n:>{width}}" for n in names))
    for name, row in zip(names, matrix):
        print(f"{name:>{width}}" + "".join(f"{v:>{width}.3f}" for v in row))
    print(f"written to {out_path}")
    return 0


def _random_model(rng):
    # continuous draws for every parameter keep ReLU kinks off the
    # finite-difference path (zero-init biases would sit exactly on them)
    extractor = FeatureExtractor.init(5, (6,), 4, rng)
    classifier = Classifier.init(4, 3, rng)
    extractor = extractor.with_params(type(extractor.params)(
        rng.uniform(-0.8, 0.8, extractor.params.size), extractor.params.shape_spec))
    classifier = classifier.with_params(type(classifier.params)(
        rng.uniform(-0.8, 0.8, classifier.params.size), classifier.params.shape_spec))
    return extractor, classifier


def _cmd_gradcheck(args) -> int:
    rng = np.random.default_rng(args.seed)
    worst_ce, worst_igd = 0.0, 0.0
    trial = 0
    attempts = 0
    while trial < args.trials and attempts < args.trials * 50:
        attempts += 1
        extractor, classifier = _random_model(rng)
        x = rng.standard_normal((4, 5))
        y = rng.integers(0, 3, size=4)

        n = 4
        classifiers = [_random_model(rng)[1] for _ in range(n)]
        part = random_partition(n, seed=int(rng.integers(1 << 31)))
        w = rng.uniform(0.5, 1.5, size=n)
        gc1 = GroupClassifier([(i, classifiers[i]) for i in part.g1],
                              w[list(part.g1)] / w[list(part.g1)].sum())
        gc2 = GroupClassifier([(i, classifiers[i]) for i in part.g2],
                              w[list(part.g2)] / w[list(part.g2)].sum())
        if not away_from_kinks(extractor, gc1, gc2, x):
            continue  # finite differences are invalid across a kink

        err_ce = grad_check(extractor, classifier, x, y, epsilon=args.epsilon)
        worst_ce = max(worst_ce, err_ce)
        _, analytic = igd_loss(extractor, gc1, gc2, x)
        numeric = finite_difference_grad(
            lambda pv: igd_loss(extractor.with_params(pv), gc1, gc2, x)[0],
            extractor.params, args.epsilon)
        err_igd = relative_grad_error(analytic, numeric)
        worst_igd = max(worst_igd, err_igd)
        print(f"trial {trial}: cross-entropy err {err_ce:.3e}, group-loss err {err_igd:.3e}")
        trial += 1
    print(f"worst over {trial} trials: cross-entropy {worst_ce:.3e}, group-loss {worst_igd:.3e}")
    ok = trial == args.trials and worst_ce < 1e-4 and worst_igd < 1e-4
    print("PASS" if ok else "FAIL")
    return 0 if ok else 3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="galasim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute an experiment config")
    p_run.add_argument("config")
    p_run.add_argument("--seed", type=int, default=None, help="override the base seed")
    p_run.add_argument("--out", default=None, help="override the output directory")
    p_run.add_argument("--parallel", type=int, default=1, help="concurrent runs")
    p_run.set_defaults(func=_cmd_run)

    p_sim = sub.add_parser("simmatrix", help="cross-domain accuracy matrix for a suite")
    p_sim.add_argument("config")
    p_sim.add_argument("--out", default=None, help="override the output directory")
    p_sim.set_defaults(func=_cmd_simmatrix)

    p_gc = sub.add_parser("gradcheck", help="finite-difference gradient harness")
    p_gc.add_argument("--trials", type=int, default=10)
    p_gc.add_argument("--epsilon", type=float, default=1e-5)
    p_gc.add_argument("--seed", type=int, default=0)
    p_gc.set_defaults(func=_cmd_gradcheck)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, ConfigError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric abort: {exc}", file=sys.stderr)
        return 3
    except WorkerError as exc:
        print(f"worker lost: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 4
    except GalaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
