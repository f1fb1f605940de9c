"""Command-line entry points.

    galasim run <config> [--seed N] [--out DIR] [--parallel K]
    galasim simmatrix <config> [--out DIR]
    galasim gradcheck [--trials N] [--epsilon E] [--seed N]

`run --parallel K` forks at most min(K, pending runs, process budget)
workers; the budget, set out in README's "Source processes", is 1 unless a
BLAS thread variable such as OPENBLAS_NUM_THREADS=1 is set.

Exit codes: 0 success, 2 configuration error, 3 numeric abort or a worker
process lost mid-round (or, for `run`, any failed run of the sweep: a run
whose source worker or sweep worker dies fails like a numeric abort),
4 I/O error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .discrepancy import GroupClassifier, away_from_kinks, igd_loss, random_partition
from .errors import ConfigError, GalaError, NumericError, ParseError, WorkerError
from .experiment import (_remove_stale_temp_files, _write_csv, build_domains, parse_config,
                         run_experiment)
from .federation import similarity_matrix
from .nn import (
    Classifier,
    FeatureExtractor,
    finite_difference_grad,
    grad_check,
    relative_grad_error,
)
from .weighting import group_normalize


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
    _remove_stale_temp_files(Path(spec.output_dir))
    domains = build_domains(spec, cache_dir=Path(spec.output_dir) / "cache")
    names = [e.name for e in spec.domains]
    matrix = similarity_matrix([domains[n] for n in names], spec.protocol)
    out_path = Path(spec.output_dir) / "simmatrix.csv"
    out_path.parent.mkdir(parents=True, exist_ok=True)
    # an error midway leaves the previous matrix
    _write_csv(out_path, [["train\\eval"] + names] +
               [[name] + [repr(float(v)) for v in row] for name, row in zip(names, matrix)])
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
    if args.trials < 1:
        raise ConfigError(f"--trials must be >= 1, got {args.trials}")
    if not 1e-7 < args.epsilon < 1e-3:  # nan fails too
        raise ConfigError(f"--epsilon must lie in (1e-7, 1e-3), got {args.epsilon}")
    if args.seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {args.seed}")
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
        w = group_normalize(rng.uniform(0.5, 1.5, size=n), part)
        gc1, gc2 = (GroupClassifier([classifiers[i] for i in g], w[list(g)])
                    for g in (part.g1, part.g2))
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
    p_run.add_argument("--parallel", type=int, default=1,
                       help="most concurrent runs, at least 1; more than 1 needs a BLAS thread "
                            "variable set, e.g. OPENBLAS_NUM_THREADS=1")
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
