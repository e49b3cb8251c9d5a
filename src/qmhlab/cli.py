"""Batch experiment runner and the query-scaling study.

Experiments are configured by JSON files and emit JSON/CSV artifacts; the
exit status is the conjunction of all pass flags.  Query counts in scaling
reports always come from measured ledgers, never from formulas alone.
"""

from __future__ import annotations

import csv
import inspect
import json
import os
import sys

import click
import numpy as np

from . import annealing, inference, perturbation, qmci
from .markov import (
    ProposalKernel,
    StateSpace,
    TargetModel,
    build_transition_matrix,
    load_model,
    mixing_bound_check,
    mixing_time_bound,
    run_mh,
)
from .qsim import (
    RegisterLayout,
    WalkOperator,
    encode_distribution,
    sf_involution,
    symmetrized_transition,
    verify_phase_gap,
)

CI_ALPHA, CI_EPS = 0.5, 0.05        # the scaling study's credible query
SCALING_METHODS = ("proposed", "exact-qsa", "classical-mh")
ANNEAL_DELTA = 0.2                  # anneal's failure weight: its schedule search takes 0.1


def _write_json(payload, path):
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)


def _default_model():
    space = StateSpace.regular_grid((8,))
    nll = 0.5 * (space.points[:, 0] - 3.0) ** 2
    model = TargetModel(space=space, prior=np.full(8, 1.0 / 8.0),
                        neg_log_lik=nll - nll.min())
    kernel = ProposalKernel.nearest_neighbor(space)
    return model, kernel


def experiment_verify_walk(model, kernel, out_dir):
    chain = build_transition_matrix(model, kernel)
    layout = RegisterLayout.for_kernel(kernel)
    # S F sends basis states to basis states, so max |(S F)^2 - I| reads 0 or 1
    involution = sf_involution(layout.neighbours(), layout.neg_slots())
    payload = {"spectral_gap": chain.spectral_gap,
               "sf_squared_error": 0.0 if involution else 1.0, "pass": False}
    if involution:      # the walk is built from these tables: otherwise nothing more to check
        walk = WalkOperator(model, layout)
        # G's reference block: the reference rows of its images of the reference states
        GA = walk.core(layout.reference_states())[layout.reference_indices()]
        block_err = float(np.abs(GA - symmetrized_transition(chain)).max())
        report = verify_phase_gap(walk, layout, chain)
        payload.update({
            "min_phase": report.min_nonzero_phase,
            "phase_bound": report.phase_bound,
            "unit_multiplicity": report.unit_multiplicity,
            "principal_overlap": report.principal_overlap,
            "reference_block_error": block_err,
            "pass": bool(report.passed and block_err <= 1e-10),
        })
    _write_json(payload, os.path.join(out_dir, "verify_walk.json"))     # makes out_dir
    if involution:
        with open(os.path.join(out_dir, "eigenphases.csv"), "w", newline="") as fh:
            csv.writer(fh).writerows([["eigenphase"]] + [[float(p)] for p in report.eigenphases])
    return payload["pass"], payload


def experiment_verify_bounds(model, kernel, out_dir, seeds=(0, 1, 2, 3),
                             eps_values=(0.01, 0.05, 0.1)):
    records = [perturbation.verification_record(f"seed{s}-eps{e}", model, kernel, e, int(s))
               for s in seeds for e in eps_values]
    chain = build_transition_matrix(model, kernel)
    mixing = [mixing_bound_check(chain, n) for n in (1, 5, 20, 50)]
    mix_ok = all(d_exact <= bound + 1e-12 for d_exact, bound in mixing)
    passed = all(r["pass"] for r in records) and mix_ok
    payload = {"records": records, "mixing_bound_pass": bool(mix_ok),
               "pass": bool(passed)}
    _write_json(payload, os.path.join(out_dir, "verify_bounds.json"))
    return passed, payload


def experiment_anneal(model, kernel, out_dir, seed=0, eps=0.1, mode="exact"):
    if eps >= 0.5:          # fidelity >= 1 - 2 eps would pass any state
        raise ValueError(f"eps must be below 0.5, not {eps:g}: any state would pass")
    schedule, state, ledger = annealing.prepare(model, kernel, eps, ANNEAL_DELTA, seed,
                                                gate_mode=mode)
    payload = {
        "betas": list(schedule.betas), "overlaps": list(schedule.overlaps),
        "success": schedule.success, "l_max": schedule.l_max,
        "schedule_queries": ledger.by_tag.get("schedule", 0),
    }
    passed = schedule.success
    if schedule.success:
        layout = RegisterLayout.for_kernel(kernel)
        target = encode_distribution(model.distribution(), layout)
        fidelity = float(np.abs(np.vdot(target, state)) ** 2)
        payload["final_fidelity"] = fidelity
        payload["total_queries"] = ledger.total
        passed = fidelity >= 1.0 - 2.0 * eps
    payload["pass"] = bool(passed)
    _write_json(payload, os.path.join(out_dir, "anneal.json"))
    return passed, payload


def experiment_qmci_pipeline(model, kernel, out_dir, seed=0, eps=0.2,
                             delta=0.1, M=64, spread=0.5):
    if eps >= 1:            # tv_realized <= eps would pass any perturbation
        raise ValueError(f"eps must be below 1, not {eps:g}: any perturbation would pass")
    oracle = qmci.LikelihoodOracle.from_nll(model.neg_log_lik, M, spread, seed)
    result = qmci.qsa_with_qmci(oracle, model, kernel, eps, delta, seed)
    passed = result.tv_realized <= eps
    payload = {
        "tv_realized": result.tv_realized, "eps": eps,
        "eps_internal": result.eps_internal,
        "walk_applications": result.walk_applications,
        "oracle_queries": result.oracle_queries,
        "table_misses": result.table_misses,
        "betas": list(result.schedule.betas),
        "pass": bool(passed),
    }
    _write_json(payload, os.path.join(out_dir, "qmci_pipeline.json"))
    return passed, payload


def experiment_credible_interval(model, kernel, out_dir, seed=0, axis=0,
                                 alpha=0.5, eps=0.05, delta=0.1):
    if not 0 <= axis < model.space.dimension:
        raise ValueError(f"axis {axis} is outside the {model.space.dimension}-axis grid")
    P = model.distribution()
    handle = inference.PosteriorHandle(distribution=P, space=model.space, prep_queries=1)
    tails = [inference.cdf_exact(P, model.space, axis, v) for v in model.space.axes[axis]]
    results = {}
    passed = True
    for side in ("upper", "lower"):
        q = inference.CredibleQuery(axis=axis, alpha=alpha, eps=eps, delta=delta, side=side)
        r = inference.credible_bound_search(q, handle, seed)
        target = alpha / 2.0 if side == "upper" else 1.0 - alpha / 2.0
        premise = any(abs(t - target) <= eps / 3.0 for t in tails)
        if r.found:
            ok = abs(inference.cdf_exact(P, model.space, axis, r.value) - target) <= eps
        else:
            # no output is the contracted outcome when no grid point sits
            # close enough to the target tail mass
            ok = not premise
        passed = passed and ok
        results[side] = {"value": r.value, "found": r.found,
                         "premise": bool(premise),
                         "iterations": r.iterations, "queries": r.queries,
                         "pass": bool(ok)}
    payload = {"alpha": alpha, "eps": eps, "results": results,
               "pass": bool(passed)}
    _write_json(payload, os.path.join(out_dir, "credible_interval.json"))
    return passed, payload


def scaling_study(out_dir, M_values=(256, 512, 1024, 2048, 4096), methods=SCALING_METHODS,
                  rho=2.0, eps=0.1, delta=0.2, seeds=(0, 1, 2)):
    """Measured oracle-query totals for credible-interval estimation vs M.

    proposed: annealed preparation with mean-estimation gates; exact-qsa: the
    same annealing.prepare, but every walk-operator application pays the full
    M-term likelihood sum; classical-mh: chain sampling paying M per step.
    Each M and each seed is given once.  Queries are averaged over the seeds before the
    slope fit over two or more distinct M; beside those slopes, each seed's own, the least
    and greatest with one seed left out (None with one seed) and that of the mean of the logs.
    """
    if len(set(M_values)) < 2:
        raise ValueError(f"a slope needs two or more distinct M values, not {list(M_values)}")
    for name, values in (("M value", M_values), ("seed", seeds)):
        if len(set(values)) < len(values):
            raise ValueError(f"each {name} must be given once, not {list(values)}")
    for M in M_values:
        inference.check_series_length(int(M))
    unknown = [m for m in methods if m not in SCALING_METHODS]
    if unknown:
        raise ValueError(f"unknown method {unknown[0]!r}; choose from {', '.join(SCALING_METHODS)}")

    def measure(method, inst, kernel, seed):
        if method == "classical-mh":
            chain = build_transition_matrix(inst.model, kernel)
            n_b = mixing_time_bound(chain, CI_EPS)
            n = int(np.ceil(2.0 / (chain.signed_gap * CI_EPS**2)))
            sample = run_mh(inst.model, kernel, n_b, n, seed)
            inference.classical_credible(sample, inst.space, 0, CI_ALPHA)
            return (n_b + n) * inst.M
        if method == "proposed":
            res = qmci.qsa_with_qmci(inst.oracle, inst.model, kernel, eps, delta, seed)
            distribution, prep_queries = res.model_pert.distribution(), res.oracle_queries
        else:                                       # exact-qsa
            _, _, ledger = annealing.prepare(inst.model, kernel, eps, delta, seed)
            distribution, prep_queries = inst.model.distribution(), ledger.total * inst.M
        handle = inference.PosteriorHandle(distribution, inst.space, prep_queries)
        return inference.credible_bound_search(ci_query, handle, seed).queries

    ci_query = inference.CredibleQuery(axis=0, alpha=CI_ALPHA, eps=CI_EPS, delta=delta)
    records = []
    for M in M_values:
        for seed in seeds:
            inst = inference.synth_gw_instance(0.1, 0.0, int(M), rho, int(seed))
            kernel = ProposalKernel.nearest_neighbor(inst.space)
            # each instance is prepared at the likelihood accuracy its own anneal certifies
            eps_internal = qmci.internal_accuracy(inst.model, kernel, eps)
            for method in methods:
                records.append({"method": method, "M": int(M), "seed": int(seed),
                                "sigma": inst.sigma, "eps_internal": eps_internal,
                                "queries": int(measure(method, inst, kernel, int(seed)))})

    logM = np.log(np.asarray(M_values, dtype=float))

    def fit(log_queries):                       # one value per M
        return float(np.polyfit(logM, log_queries, 1)[0])

    def queries(method, M, kept=seeds):          # the kept seeds' records
        return [float(r["queries"]) for r in records
                if r["method"] == method and r["M"] == int(M) and r["seed"] in kept]

    def mean_slope(method, kept=seeds):          # the slope of the kept seeds' mean
        return fit(np.log([np.mean(queries(method, M, kept)) for M in M_values]))

    def left_out(method):                       # one seed leaves none to fit
        if len(seeds) < 2:
            return None
        slopes = [mean_slope(method, [x for x in seeds if x != s]) for s in seeds]
        return [min(slopes), max(slopes)]

    payload = {
        "records": records,
        "slopes": {m: mean_slope(m) for m in methods},
        "seed_slopes": {m: {str(s): mean_slope(m, [s]) for s in seeds} for m in methods},
        "leave_one_seed_out_slopes": {m: left_out(m) for m in methods},
        "log_mean_slopes": {m: fit([np.mean(np.log(queries(m, M))) for M in M_values])
                            for m in methods},
    }
    _write_json(payload, os.path.join(out_dir, "scaling.json"))
    with open(os.path.join(out_dir, "scaling.csv"), "w", newline="") as fh:
        columns = ["method", "M", "seed", "sigma", "eps_internal", "queries"]
        csv.writer(fh).writerows([columns] + [[r[c] for c in columns] for r in records])
    return payload


# experiment -> (runner, the config keys it reads); absent keys take the runner's default
RUNNERS = {
    "verify-walk": (experiment_verify_walk, ()),
    "verify-bounds": (experiment_verify_bounds, ("seeds", "eps_values")),
    "anneal": (experiment_anneal, ("seed", "eps", "mode")),
    "qmci-pipeline": (experiment_qmci_pipeline, ("seed", "eps", "delta", "M", "spread")),
    "credible-interval": (experiment_credible_interval,
                          ("seed", "axis", "alpha", "eps", "delta")),
    "gw-scaling": (scaling_study, ("M_values", "methods", "rho", "eps", "delta", "seeds")),
}


# a runner default's type -> (the JSON values that may replace it, their name, alone and listed)
_KINDS = {int: (int, "an integer", "integers"), float: ((int, float), "a number", "numbers"),
          str: (str, "a string", "strings")}


def _check_kind(key, value, default):
    """A one-line error unless the config value is of the kind of the default it replaces."""
    listed = isinstance(default, tuple)
    admitted, one, many = _KINDS[type(default[0] if listed else default)]
    # JSON true is an int to isinstance, and no runner default is a boolean
    if listed != isinstance(value, list) or value == [] or not all(
            isinstance(v, admitted) and not isinstance(v, bool)
            for v in (value if listed else [value])):
        kind = "a list of one or more " + many if listed else one
        raise click.ClickException(f"config key {key!r} must be {kind}, not {json.dumps(value)}")


def _run_config(cfg, out_dir):
    exp = cfg.get("experiment")
    if not isinstance(exp, str) or exp not in RUNNERS:
        raise click.ClickException(
            f"unknown experiment {exp!r}; choose from {', '.join(RUNNERS)}")
    runner, keys = RUNNERS[exp]
    kwargs = {k: cfg[k] for k in keys if k in cfg}
    for key, value in kwargs.items():
        _check_kind(key, value, inspect.signature(runner).parameters[key].default)
    try:
        if exp == "gw-scaling":          # builds its own GW instances
            click.echo(json.dumps(runner(out_dir, **kwargs)["slopes"], indent=2))
            return True
        if "model" in cfg:
            _check_kind("model", cfg["model"], "")
            try:
                model, kernel, model_seed = load_model(cfg["model"])
            except (OSError, ValueError) as exc:     # json.JSONDecodeError is a ValueError
                raise click.ClickException(f"model file {cfg['model']}: {exc}") from None
            if "seed" in keys:           # a config seed overrides the model file's
                kwargs.setdefault("seed", model_seed)
        else:
            model, kernel = _default_model()
        return runner(model, kernel, out_dir, **kwargs)[0]
    except ValueError as exc:            # the library's own input checks
        raise click.ClickException(f"{exp}: {exc}") from None


def _load_config(path):
    """Parsed JSON config and its output directory."""
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except json.JSONDecodeError as exc:
        raise click.ClickException(f"config parse error at line {exc.lineno}, "
                                   f"column {exc.colno}: {exc.msg}")
    if not isinstance(cfg, dict):
        raise click.ClickException(f"config holds a JSON {type(cfg).__name__}, not an object")
    out_dir = cfg.get("output_dir", os.environ.get("QMH_LAB_OUT", "qmh-lab-out"))
    _check_kind("output_dir", out_dir, "")
    return cfg, out_dir


@click.group()
def main():
    """Numerical laboratory for quantum Metropolis-Hastings experiments."""


@main.command("run")
@click.argument("config", type=click.Path(exists=True, dir_okay=False))
def run_cmd(config):
    """Run the experiment described by a JSON config file."""
    cfg, out_dir = _load_config(config)
    passed = _run_config(cfg, out_dir)
    click.echo(f"{cfg.get('experiment')}: {'PASS' if passed else 'FAIL'}")
    sys.exit(0 if passed else 1)


@main.command("verify")
@click.option("--suite", default="all",
              type=click.Choice(["all", "walk", "bounds"]))
@click.option("--out", default="qmh-lab-out", show_default=True)
def verify_cmd(suite, out):
    """Run the built-in verification battery on the bundled model."""
    model, kernel = _default_model()
    passed = True
    if suite in ("all", "walk"):
        ok, _ = experiment_verify_walk(model, kernel, out)
        click.echo(f"walk-operator checks: {'PASS' if ok else 'FAIL'}")
        passed = passed and ok
    if suite in ("all", "bounds"):
        ok, _ = experiment_verify_bounds(model, kernel, out)
        click.echo(f"perturbation/mixing bounds: {'PASS' if ok else 'FAIL'}")
        passed = passed and ok
    sys.exit(0 if passed else 1)


@main.command("scaling")
@click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False),
              required=True)
def scaling_cmd(config_path):
    """Run the query-scaling study described by a JSON config file."""
    cfg, out_dir = _load_config(config_path)
    _run_config({**cfg, "experiment": "gw-scaling"}, out_dir)
    sys.exit(0)


if __name__ == "__main__":
    main()
