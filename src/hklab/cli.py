"""Command-line front end: batch experiments, persistence, reporting.

Exit codes: 0 success, 2 validation failure, 3 budget exhaustion,
4 internal error.  Every output blob embeds the config hash, the RNG seed,
the code version, and the wall time; cached runs reproduce byte-identically
(the cache key includes the code version, a hash of the package sources, so
no code change ever serves stale blobs).  ``HK_CACHE_DIR`` overrides the
cache location.
"""

import argparse
import csv
import functools
import hashlib
import json
import os
import sys
import time
from collections import Counter
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import __version__
from .core import SystemParams
from .counting import count_mitm, count_naive, mvt_scaling_experiment, vinogradov_count
from .circle import (
    W1,
    W2,
    DissectionParams,
    classify,
    dilation_containment_check,
    major_1d_witness,
    minor_arc_decay_experiment,
    moment_majorant_experiment,
    w4_main_term_experiment,
)
from .densities import (
    main_term,
    mc_volume_oracle,
    singular_integral_quadrature,
    singular_series_euler,
    singular_series_qsum,
)
from .errors import BudgetExceededError, ValidationError
from .expsums import (
    complete_sum,
    oscillatory_integral,
    verify_binomial_transform,
    verify_resolution_identity,
    verify_shift_reindex,
    weyl_sum,
    weyl_sum_batch,
)
from .local import solubility_report
from .streams import substream

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4


# ---------------------------------------------------------------------------
# config and cache
# ---------------------------------------------------------------------------

# name -> (allowed config keys, runner(options) -> result, summary(result) -> str).
# Each allowed key is a parameter of the function the runner calls, and the
# runner passes the config as keyword arguments, so the function's own
# defaults fill the keys a config leaves out.  Runners look the experiment
# functions up as module globals at call time, so rebinding those names (as
# a tracer does) reaches every run.
_EXPERIMENTS = {
    "minor-decay": (
        {"s", "k", "X", "Q_list", "samples", "seed"},
        lambda o: minor_arc_decay_experiment(**o),
        lambda r: (f"sup slope {r['sup_slope']:.4f} "
                   f"(reference {r['reference_sigma']:.4f}), strictly "
                   f"decreasing: {r['strictly_decreasing']}")),
    "moment-majorant": (
        {"s", "k", "X", "Q_list", "h", "samples", "seed"},
        lambda o: {**moment_majorant_experiment(**o),
                   "containment": dilation_containment_check(
                       o["s"], max(o["Q_list"]), o["X"], o["k"],
                       **_given(seed=o.get("seed")))},
        lambda r: ("bound ratios "
                   f"{[format(row['ratio'], '.3g') for row in r['rows']]}, "
                   f"containment {r['containment']['passed']}"
                   f"/{r['containment']['checked']}")),
    "w4-main": (
        {"s", "k", "base_tuple", "scale_list", "l_exponent",
         "series_p_max", "series_modcap"},
        lambda o: w4_main_term_experiment(**o),
        lambda r: ("count/main-term ratios "
                   f"{[round(row['ratio'], 4) for row in r['rows']]} "
                   f"at scales {[row['X0'] for row in r['rows']]}")),
}


@dataclass
class ExperimentConfig:
    """Validated experiment description; unknown keys are rejected."""

    name: str
    options: dict = field(default_factory=dict)

    @classmethod
    def load(cls, path):
        with open(path) as fh:
            raw = json.load(fh)
        if not isinstance(raw, dict) or "name" not in raw:
            raise ValidationError("config must be a JSON object with a 'name' field")
        name = raw["name"]
        if name not in _EXPERIMENTS:
            raise ValidationError(
                f"unknown experiment '{name}'; expected one of {sorted(_EXPERIMENTS)}")
        options = {k: v for k, v in raw.items() if k != "name"}
        unknown = set(options) - _EXPERIMENTS[name][0]
        if unknown:
            raise ValidationError(
                f"unknown config keys for '{name}': {sorted(unknown)}")
        return cls(name, options)

    def canonical(self):
        return json.dumps({"name": self.name, **self.options},
                          sort_keys=True, separators=(",", ":"))


def config_hash(payload):
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


@functools.lru_cache(maxsize=None)
def code_version():
    """``__version__`` plus a SHA-256 prefix of the ``hklab`` sources.

    Computed on first use rather than at import, so start-up reads no files.
    """
    digest = hashlib.sha256()
    for path in sorted(Path(__file__).parent.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return f"{__version__}+{digest.hexdigest()[:16]}"


class ResultCache:
    """Content-addressed blob store keyed by (operation, inputs, code version)."""

    def __init__(self):
        self.root = Path(os.environ.get("HK_CACHE_DIR",
                                        os.path.join(Path.home(), ".cache", "hklab")))

    def key(self, op, inputs):
        canon = json.dumps({"op": op, "inputs": inputs, "version": code_version()},
                           sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()

    def get(self, key):
        path = self.root / f"{key}.json"
        if path.exists():
            return path.read_bytes()
        return None

    def put(self, key, blob):
        self.root.mkdir(parents=True, exist_ok=True)
        (self.root / f"{key}.json").write_bytes(blob)


def _finalize(payload, args, t0, seed=None):
    payload["meta"] = {
        "code_version": code_version(),
        "config_hash": config_hash(json.dumps(
            {k: v for k, v in sorted(vars(args).items())
             if k not in ("func",)}, default=str, sort_keys=True)),
        "seed": seed,
        "wall_time_s": round(time.perf_counter() - t0, 6),
    }
    return payload


def _emit(payload, out=None):
    blob = json.dumps(payload, indent=2, sort_keys=True, default=_jsonable)
    if out:
        Path(out).parent.mkdir(parents=True, exist_ok=True)
        Path(out).write_text(blob + "\n")
        print(f"wrote {out}")
    else:
        print(blob)


def _jsonable(obj):
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if hasattr(obj, "__dataclass_fields__"):
        return asdict(obj)
    if isinstance(obj, Fraction):
        return str(obj)
    return str(obj)


def _write_csv(path, header, rows):
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)
    print(f"wrote {path}")


def _parse_intlist(text):
    return [int(v) for v in str(text).split(",") if v != ""]


def _parse_floatlist(text):
    return [float(v) for v in str(text).split(",") if v != ""]


def _parse_target(args):
    """The ``--n`` target vector, which needs one entry per degree ``--k``."""
    n = _parse_intlist(args.n)
    if len(n) != args.k:
        raise ValidationError(f"--n has {len(n)} entries but --k is {args.k}")
    return n


def _given(**options):
    """The options given a value (not None); the callee's defaults fill the rest."""
    return {name: v for name, v in options.items() if v is not None}


def _params_from_args(args):
    variant = getattr(args, "variant", "pure") or "pure"
    if variant == "pure":
        return SystemParams.pure(args.s, args.k)
    if variant.startswith("mixed:"):
        l, m = (int(v) for v in variant.split(":", 1)[1].split(","))
        return SystemParams.mixed_sign(l, m, args.k)
    if variant.startswith("coeffs:"):
        return SystemParams.with_coefficients(
            _parse_intlist(variant.split(":", 1)[1]), args.k)
    raise ValidationError(f"unknown variant '{variant}'")


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def cmd_count(args):
    t0 = time.perf_counter()
    params = _params_from_args(args)
    n = _parse_target(args)
    results = {}
    if args.method in ("naive", "both"):
        results["naive"] = asdict(count_naive(params, n, box=args.box,
                                              x_min=args.xmin, budget=args.budget))
    if args.method in ("mitm", "both"):
        results["mitm"] = asdict(count_mitm(params, n, box=args.box,
                                            x_min=args.xmin, budget=args.budget))
    counts = {m: r["count"] for m, r in results.items()}
    if len(set(counts.values())) > 1:
        raise RuntimeError(f"method disagreement: {counts}")
    print(next(iter(counts.values())))
    payload = _finalize({"n": n, "results": results}, args, t0)
    if args.out:
        _emit(payload, args.out)
    return EXIT_OK


def cmd_vinogradov(args):
    t0 = time.perf_counter()
    X_list = _parse_intlist(args.X)
    if len(X_list) == 1:
        J = vinogradov_count(args.t, args.k, X_list[0], budget=args.budget)
        print(J)
        payload = _finalize({"t": args.t, "k": args.k, "X": X_list[0], "J": J},
                            args, t0)
    else:
        table = mvt_scaling_experiment(args.t, args.k, X_list, budget=args.budget)
        for row in table["rows"]:
            print(f"X={row['X']:>8}  J={row['J']}")
        print(f"slope={table['slope']:.4f}  "
              f"critical={table['critical_exponent']}  "
              f"subcritical={table['subcritical_exponent']}")
        payload = _finalize(table, args, t0)
    if args.out:
        _emit(payload, args.out)
    return EXIT_OK


# the values each kind of sum reads, and those of them it cannot do without
_SUM_READS = {"weyl": ("alpha",), "complete": ("q", "a"), "integral": ("beta", "tol")}
_SUM_NEEDS = {"weyl": ("alpha",), "complete": ("q", "a"), "integral": ("beta",)}


def _check_sum_flags(args):
    """Refuse a value the kind does not read, and a missing one it needs."""
    for name in ("alpha", "beta", "q", "a", "tol"):
        if getattr(args, name) is not None and name not in _SUM_READS[args.kind]:
            raise ValidationError(f"--{name} is not read by 'sums {args.kind}'")
    if args.grid is None and args.csv is None:
        for name in _SUM_NEEDS[args.kind]:
            if getattr(args, name) is None:
                raise ValidationError(f"'sums {args.kind}' needs --{name}")
        return
    if args.kind != "weyl":
        raise ValidationError(f"--grid and --csv evaluate Weyl sums, not '{args.kind}'")
    if args.alpha is not None:
        raise ValidationError("--alpha is one point; --grid and --csv give the points")
    if args.grid is not None and args.csv is not None:
        raise ValidationError("--grid and --csv both give the points; give one")
    if args.grid is not None and args.grid < 1:
        raise ValidationError(f"--grid must be at least 1, not {args.grid}")


def _csv_points(path, k):
    """The first ``k`` columns of the CSV's rows; fewer than ``k`` is refused."""
    data = np.loadtxt(path, delimiter=",", ndmin=2)
    if data.shape[1] < k:
        raise ValidationError(f"--csv has {data.shape[1]} columns but --k is {k}")
    return data[:, :k]


def cmd_sums(args):
    _check_sum_flags(args)
    if args.grid is not None or args.csv is not None:
        k = args.k
        if args.csv is not None:
            mesh = _csv_points(args.csv, k)
        else:
            N = args.grid
            axes = [np.arange(N) / N for _ in range(k)]
            mesh = np.stack(np.meshgrid(*axes, indexing="ij"),
                            axis=-1).reshape(-1, k)
        vals = weyl_sum_batch(mesh, args.X)
        out = args.out or "weyl_grid.csv"
        header = [f"alpha_{j + 1}" for j in range(k)] + ["re", "im"]
        rows = [list(map(float, mesh[i])) + [vals[i].real, vals[i].imag]
                for i in range(len(mesh))]
        _write_csv(out, header, rows)
        return EXIT_OK
    if args.kind == "weyl":
        v = weyl_sum(_parse_floatlist(args.alpha), args.X)
        print(f"{v.real:.12g} {v.imag:+.12g}i")
    elif args.kind == "complete":
        v = complete_sum(args.q, _parse_intlist(args.a))
        print(f"{v.real:.12g} {v.imag:+.12g}i  |S|={abs(v):.12g}")
    else:
        r = oscillatory_integral(_parse_floatlist(args.beta), args.X,
                                 tol=args.tol)
        print(f"{r.value.real:.12g} {r.value.imag:+.12g}i  "
              f"err~{r.error_estimate:.3g} panels={r.panels}")
    return EXIT_OK


def cmd_local(args):
    t0 = time.perf_counter()
    n = _parse_target(args)
    rep = solubility_report(n, args.s, seed=args.seed, budget=args.budget)
    print(f"power-mean necessity : {'ok' if rep.holder_ok else 'FAIL'}")
    print(f"congruence necessity : {'ok' if rep.fermat_ok else 'FAIL'}")
    for p, r in sorted(rep.padic.items()):
        extra = f" depth={r.depth} tau={r.tau}" if r.status == "found" else f" ({r.reason})"
        print(f"p = {p:<3}: {r.status}{extra}")
    print(f"real witness         : {rep.real.status}"
          + (f" (nonsingular={rep.real.nonsingular})" if rep.real.status == "found" else ""))
    for w in rep.warnings:
        print(f"warning: {w}")
    print(f"verdict              : {rep.verdict}")
    if args.out:
        _emit(_finalize(json.loads(rep.to_json()), args, t0, seed=args.seed),
              args.out)
    return EXIT_OK


def cmd_densities(args):
    t0 = time.perf_counter()
    # reject flags that would be ignored, and bad values, before any series work
    if args.mc and not args.integral:
        raise ValidationError("--mc needs --integral")
    if args.samples is not None and not args.mc:
        raise ValidationError("--samples needs --mc")
    if args.samples is not None and args.samples < 1:
        raise ValidationError("--samples must be at least 1")
    if args.method == "euler" and (args.csv or args.qmax is not None):
        flag = "--csv" if args.csv else "--qmax"
        raise ValidationError(f"{flag} needs --method qsum or both")
    if args.method == "qsum" and args.pmax is not None:
        raise ValidationError("--pmax needs --method euler or both")
    params = _params_from_args(args)
    n = _parse_target(args)
    if args.integral and not params.is_pure:
        raise ValidationError("--integral needs the pure system (--variant pure)")
    out = {"n": n, "s": args.s, "k": args.k}
    # the quadrature is priced against its cell cap in a millisecond, so an
    # integral over the cap is refused before any series work
    quad = singular_integral_quadrature(n, params) if args.integral else None
    series = None  # the Euler product when both routes ran
    if args.method in ("qsum", "both"):
        series = singular_series_qsum(n, params, **_given(Q_max=args.qmax, tol=args.tol))
        out["series_qsum"] = asdict(series)
        if args.csv:
            _write_csv(args.csv, ["q", "A_q"],
                       [[q, v] for q, v in series.detail["terms"]])
    if args.method in ("euler", "both"):
        series = singular_series_euler(n, params, **_given(p_max=args.pmax, tol=args.tol))
        out["series_euler"] = asdict(series)
    if args.integral:
        out["integral"] = asdict(quad)
        if args.mc:
            out["integral_mc"] = asdict(mc_volume_oracle(
                n, params, seed=args.seed, **_given(samples=args.samples)))
        if series is not None:
            try:
                out["main_term"] = main_term(n, params, series, quad)
            except Exception as exc:  # noqa: BLE001 - reported, not fatal
                out["main_term_error"] = str(exc)
    payload = _finalize(out, args, t0, seed=args.seed)
    _emit(payload, args.out)
    return EXIT_OK


def cmd_arcs(args):
    if args.Q is not None and args.l_exponent is not None:
        raise ValidationError("--l-exponent sets the dissection, which --Q replaces")
    d = DissectionParams.from_scale(args.X, args.k, l_exponent=args.l_exponent)
    if args.csv:
        pts = _csv_points(args.csv, args.k)
    elif args.alpha:
        pts = np.array([_parse_floatlist(args.alpha)])
    else:
        rng = substream(args.seed, 0)
        pts = rng.random((args.points, args.k))
    if not np.isfinite(pts).all():
        raise ValidationError("non-finite frequency")
    if args.Q is not None:
        # 1-d membership mode: test the final coordinate at an explicit cutoff
        q, a = major_1d_witness(pts[:, -1], args.Q, args.X, args.k)
        if len(pts) <= 20:
            for v, qv, av in zip(pts[:, -1], q, a):
                print(f"{float(v):.6f} -> "
                      + (f"major (q={qv}, a={av})" if qv else "minor"))
        if args.out:  # q and a empty at a minor point, as in the classify rows
            qa = [np.where(q > 0, v.astype(str), "").tolist() for v in (q, a)]
            _write_csv(args.out, [f"alpha_{args.k}", "q", "a"], zip(pts[:, -1].tolist(), *qa))
        print(f"major: {int(np.count_nonzero(q))}/{len(pts)} "
              f"at Q={args.Q}, X={args.X}, k={args.k}")
        return EXIT_OK
    cls, q, a = classify(pts, d)
    # labels print as tuples: (a_k,) for the 1-d witness of W2 (and any k = 1
    # witness), (a_1, ..., a_k) for a box centre
    text = a.astype(str)
    labels = np.select(
        [cls == W1, (cls == W2) | (args.k == 1)], ["", "(" + text[:, -1] + ",)"],
        "(" + functools.reduce(lambda x, y: x + ", " + y, text.T) + ")")
    if len(pts) <= 20:
        for p, c, qv, lab in zip(np.round(pts, 6).tolist(), cls, q, labels):
            print(f"{p} -> {c}" + (f" (q={qv}, a={lab})" if qv else ""))
    if args.out:
        _write_csv(args.out,
                   [f"alpha_{j + 1}" for j in range(args.k)] + ["class", "q", "a"],
                   zip(*pts.T.tolist(), cls.tolist(),
                       np.where(q > 0, q.astype(str), "").tolist(), labels.tolist()))
    counts = dict(Counter(cls.tolist()))
    print(f"classes: {counts}  (L={d.L:.4g}, Q={d.Q:.4g}, X={d.X:.4g})")
    return EXIT_OK


def cmd_experiment(args):
    t0 = time.perf_counter()
    cfg = ExperimentConfig.load(args.config)
    cache = ResultCache()
    key = cache.key("experiment:" + cfg.name, cfg.canonical())
    out_path = args.out or f"{cfg.name}_result.json"
    if not args.no_cache:
        hit = cache.get(key)
        if hit is not None:
            Path(out_path).parent.mkdir(parents=True, exist_ok=True)
            Path(out_path).write_bytes(hit)
            print(f"cache hit -> {out_path}")
            return EXIT_OK
    _, run, summary = _EXPERIMENTS[cfg.name]
    try:
        result = run(cfg.options)
    except BudgetExceededError as exc:
        partial = {"experiment": cfg.name, "partial": True,
                   "work_done": exc.work_done, "error": str(exc)}
        Path(out_path).parent.mkdir(parents=True, exist_ok=True)
        Path(out_path).write_text(json.dumps(partial, indent=2) + "\n")
        print(f"wrote partial artifact {out_path}")
        raise
    payload = _finalize({"experiment": cfg.name, "config": json.loads(cfg.canonical()),
                         "result": result}, args, t0, seed=cfg.options.get("seed"))
    payload["meta"]["config_hash"] = config_hash(cfg.canonical())
    blob = json.dumps(payload, indent=2, sort_keys=True, default=_jsonable) + "\n"
    Path(out_path).parent.mkdir(parents=True, exist_ok=True)
    Path(out_path).write_text(blob)
    cache.put(key, blob.encode())
    if "rows" in result:
        csv_path = str(Path(out_path).with_suffix(".csv"))
        header = sorted({k2 for row in result["rows"] for k2 in row
                         if not isinstance(row[k2], (dict, list))})
        _write_csv(csv_path, header,
                   [[row.get(h, "") for h in header] for row in result["rows"]])
    print(f"wrote {out_path}")
    print(f"summary: {summary(result)}")
    return EXIT_OK


def cmd_verify(args):
    if args.what != "identities":
        raise ValidationError("only 'identities' verification is available")
    rng = substream(args.seed, 0)
    k, X = args.k, args.X
    failures = 0

    def rand_alpha():
        num = rng.integers(0, 64, size=k)
        den = rng.integers(1, 64, size=k)
        return num / den % 1.0

    worst_reindex = 0.0
    worst_resolution = 0.0
    for t in range(args.trials):
        alpha = rand_alpha()
        y = int(rng.integers(0, X + 1))
        worst_reindex = max(worst_reindex, verify_shift_reindex(alpha, X, y))
        N = 3 * X + 3 + int(rng.integers(0, 8))
        worst_resolution = max(worst_resolution,
                               verify_resolution_identity(alpha, X, y, N))
        x = rng.integers(0, 30, size=args.s)
        yb = int(rng.integers(0, 10))
        if not verify_binomial_transform([int(v) for v in x], yb, k):
            failures += 1
    tol_reindex = 1e-9 * (X + 1)
    tol_resolution = 1e-8 * (X + 1) ** 2
    ok_re = worst_reindex <= tol_reindex
    ok_rs = worst_resolution <= tol_resolution
    print(f"reindex identity    : worst {worst_reindex:.3e} vs {tol_reindex:.1e} "
          f"{'pass' if ok_re else 'FAIL'}")
    print(f"resolution identity : worst {worst_resolution:.3e} vs {tol_resolution:.1e} "
          f"{'pass' if ok_rs else 'FAIL'}")
    print(f"binomial transform  : {args.trials - failures}/{args.trials} pass")
    all_ok = ok_re and ok_rs and failures == 0
    print("all identity checks pass" if all_ok else "IDENTITY CHECKS FAILED")
    return EXIT_OK if all_ok else EXIT_INTERNAL


def cmd_report(args):
    root = Path(args.dir)
    blobs = sorted(root.glob("*.json"))
    if not blobs:
        raise ValidationError(f"no result blobs in {root}")
    by_experiment = {}
    versions = set()
    for path in blobs:
        try:
            data = json.loads(path.read_text())
        except json.JSONDecodeError:
            continue
        meta = data.get("meta", {})
        versions.add(meta.get("code_version", "?"))
        name = data.get("experiment", data.get("name", path.stem))
        by_experiment.setdefault(name, []).append((path.name, data))
    if len(versions) > 1:
        print(f"WARNING: mixed code versions in results: {sorted(versions)}")
    for name, items in sorted(by_experiment.items()):
        rows = []
        for fname, data in items:
            result = data.get("result", data)
            for row in result.get("rows", []):
                flat = {k2: v for k2, v in row.items()
                        if not isinstance(v, (dict, list))}
                flat["source"] = fname
                rows.append(flat)
        print(f"== {name}: {len(items)} result(s), {len(rows)} row(s)")
        if rows:
            header = sorted({k2 for r in rows for k2 in r})
            out = root / f"merged_{name}.csv"
            _write_csv(out, header, [[r.get(h, "") for h in header] for r in rows])
            slopes = [data.get("result", {}).get("sup_slope")
                      for _, data in items]
            slopes = [s for s in slopes if isinstance(s, (int, float))]
            if slopes:
                print(f"   fitted slope(s): {[round(s, 4) for s in slopes]}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser():
    p = argparse.ArgumentParser(prog="hk",
                                description="power-sum system laboratory")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("count", help="exact representation count")
    c.add_argument("--s", type=int, required=True)
    c.add_argument("--k", type=int, required=True)
    c.add_argument("--n", required=True, help="comma-separated target vector")
    c.add_argument("--variant", default="pure",
                   help="pure | mixed:l,m | coeffs:c1,c2,...")
    c.add_argument("--box", type=int, default=None)
    c.add_argument("--xmin", type=int, default=None)
    c.add_argument("--method", choices=["naive", "mitm", "both"], default="mitm")
    c.add_argument("--budget", type=int, default=50_000_000)
    c.add_argument("--out", default=None)
    c.set_defaults(func=cmd_count)

    v = sub.add_parser("vinogradov", help="translation-invariant mean values")
    v.add_argument("--t", type=int, required=True)
    v.add_argument("--k", type=int, required=True)
    v.add_argument("--X", required=True, help="scale or comma list of scales")
    v.add_argument("--budget", type=int, default=50_000_000)
    v.add_argument("--out", default=None)
    v.set_defaults(func=cmd_vinogradov)

    s = sub.add_parser("sums", help="exponential sums and integrals")
    s.add_argument("kind", choices=["weyl", "complete", "integral"])
    s.add_argument("--k", type=int, default=2)
    s.add_argument("--alpha", default=None)
    s.add_argument("--beta", default=None)
    s.add_argument("--q", type=int, default=None)
    s.add_argument("--a", default=None)
    s.add_argument("--X", type=float, default=10.0)
    s.add_argument("--tol", type=float, default=None)
    s.add_argument("--grid", type=int, default=None,
                   help="emit CSV of f on the N^k lattice of [0,1)^k")
    s.add_argument("--csv", default=None,
                   help="CSV of alpha rows to evaluate in batch")
    s.add_argument("--out", default=None)
    s.set_defaults(func=cmd_sums)

    lo = sub.add_parser("local", help="local solubility report")
    lo.add_argument("--s", type=int, required=True)
    lo.add_argument("--k", type=int, required=True)
    lo.add_argument("--n", required=True)
    lo.add_argument("--seed", type=int, default=0)
    lo.add_argument("--budget", type=int, default=2_000_000)
    lo.add_argument("--out", default=None)
    lo.set_defaults(func=cmd_local)

    d = sub.add_parser("densities", help="series / integral / main term")
    d.add_argument("--s", type=int, required=True)
    d.add_argument("--k", type=int, required=True)
    d.add_argument("--n", required=True)
    d.add_argument("--variant", default="pure")
    d.add_argument("--method", choices=["qsum", "euler", "both"], default="both")
    d.add_argument("--qmax", type=int, help="q-sum modulus bound (default 100 at "
                   "k = 2, else 30; needs --method qsum or both)")
    d.add_argument("--pmax", type=int, help="largest Euler prime (default 13; "
                   "needs --method euler or both)")
    d.add_argument("--tol", type=float, default=None,
                   help="qsum: bound on the fitted tail past Q_max for "
                        "convergence (default 0.02); euler: per-prime "
                        "stabilisation between depths (default 1e-9)")
    d.add_argument("--integral", action="store_true")
    d.add_argument("--mc", action="store_true",
                   help="add the Monte-Carlo volume oracle (needs --integral)")
    d.add_argument("--samples", type=int, help="Monte-Carlo samples per slab "
                   "width (default 2000000; needs --mc)")
    d.add_argument("--seed", type=int, default=7)
    d.add_argument("--csv", default=None,
                   help="dump (q, A(q)) rows (needs --method qsum or both)")
    d.add_argument("--out", default=None)
    d.set_defaults(func=cmd_densities)

    a = sub.add_parser("arcs", help="classify frequency points")
    a.add_argument("--k", type=int, required=True)
    a.add_argument("--X", type=float, required=True)
    a.add_argument("--Q", type=float, default=None,
                   help="1-d membership mode at this explicit cutoff")
    a.add_argument("--l-exponent", dest="l_exponent", type=float, default=None)
    a.add_argument("--csv", default=None, help="CSV of alpha rows to classify")
    a.add_argument("--alpha", default=None)
    a.add_argument("--points", type=int, default=10)
    a.add_argument("--seed", type=int, default=0)
    a.add_argument("--out", default=None)
    a.set_defaults(func=cmd_arcs)

    e = sub.add_parser("experiment", help="run a named experiment from JSON config")
    e.add_argument("--config", required=True)
    e.add_argument("--out", default=None)
    e.add_argument("--no-cache", action="store_true")
    e.set_defaults(func=cmd_experiment)

    ver = sub.add_parser("verify", help="identity suite")
    ver.add_argument("what", choices=["identities"])
    ver.add_argument("--k", type=int, default=2)
    ver.add_argument("--s", type=int, default=6)
    ver.add_argument("--X", type=int, default=20)
    ver.add_argument("--trials", type=int, default=50)
    ver.add_argument("--seed", type=int, default=0)
    ver.set_defaults(func=cmd_verify)

    rep = sub.add_parser("report", help="merge result blobs into summary CSVs")
    rep.add_argument("--dir", required=True)
    rep.set_defaults(func=cmd_report)

    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except BudgetExceededError as exc:
        print(f"budget exhausted: {exc} (partial work: {exc.work_done})",
              file=sys.stderr)
        return EXIT_BUDGET
    except Exception as exc:  # noqa: BLE001
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
