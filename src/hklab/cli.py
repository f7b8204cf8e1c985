"""Command-line front end: batch experiments, persistence, reporting.

Exit codes: 0 success, 2 validation failure, 3 budget exhaustion,
4 internal error; a usage error is a validation failure too, and flags are
not abbreviated.  Every output blob embeds the config hash, the RNG seed,
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
from .errors import BudgetExceededError, NonConvergedError, ValidationError
from .expsums import (
    complete_sum,
    oscillatory_integral,
    verify_binomial_transform,
    verify_resolution_identity,
    verify_shift_reindex,
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
        try:
            with open(path) as fh:
                raw = json.load(fh)
        except (OSError, ValueError) as exc:  # missing file, bad JSON
            raise ValidationError(f"--config {path}: {exc}") from exc
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
    return str(obj)


def _write_csv(path, header, rows):
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)
    print(f"wrote {path}")


def _list_of(convert):
    """An argparse type: a comma-separated list of ``convert`` values."""
    def parse(text):
        try:
            return [convert(v) for v in text.split(",") if v != ""]
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected comma-separated {convert.__name__}s, not {text!r}") from None
    return parse


_INTS, _FLOATS = _list_of(int), _list_of(float)


def positive_int(text):
    if int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, not {text!r}")
    return int(text)


def _variant(text):
    """``--variant``: ``None`` for the pure system, else the coefficient tuple."""
    kind, _, values = text.partition(":")
    c = _INTS(values)
    if text == "pure":
        return None
    if kind == "coeffs":
        return tuple(c)
    if kind == "mixed" and len(c) == 2 and min(c) >= 0:
        return (1,) * c[0] + (-1,) * c[1]
    raise argparse.ArgumentTypeError("expected pure, mixed:l,m or coeffs:c1,c2,...")


def _one_per_degree(args, name):
    """The list flag ``--name``, which needs one entry per degree ``--k``."""
    values = getattr(args, name)
    if len(values) != args.k:
        raise ValidationError(f"--{name} has {len(values)} entries but --k is {args.k}")
    return values


def _given(**options):
    """The options given a value (not None); the callee's defaults fill the rest."""
    return {name: v for name, v in options.items() if v is not None}


def _params_from_args(args):
    if args.variant is not None and len(args.variant) != args.s:
        raise ValidationError(f"--variant has {len(args.variant)} variables "
                              f"but --s is {args.s}")
    return SystemParams(args.s, args.k, args.variant)


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def cmd_count(args):
    t0 = time.perf_counter()
    params = _params_from_args(args)
    n = _one_per_degree(args, "n")
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
    if len(args.X) == 1:
        J = vinogradov_count(args.t, args.k, args.X[0], budget=args.budget)
        print(J)
        payload = _finalize({"t": args.t, "k": args.k, "X": args.X[0], "J": J},
                            args, t0)
    else:
        table = mvt_scaling_experiment(args.t, args.k, args.X, budget=args.budget)
        for row in table["rows"]:
            print(f"X={row['X']:>8}  J={row['J']}")
        print(f"slope={table['slope']:.4f}  "
              f"critical={table['critical_exponent']}  "
              f"subcritical={table['subcritical_exponent']}")
        payload = _finalize(table, args, t0)
    if args.out:
        _emit(payload, args.out)
    return EXIT_OK


def _points(args):
    """The one ``--alpha`` point, the first ``--k`` columns of ``--csv``, or None."""
    if args.alpha is not None:
        return np.array([_one_per_degree(args, "alpha")])
    if args.csv is None:
        return None
    try:
        data = np.loadtxt(args.csv, delimiter=",", ndmin=2)
    except (OSError, ValueError) as exc:  # missing file, non-numeric cell
        raise ValidationError(f"--csv {args.csv}: {exc}") from exc
    if data.shape[1] < args.k:
        raise ValidationError(f"--csv has {data.shape[1]} columns but --k is {args.k}")
    return data[:, :args.k]


def cmd_weyl(args):
    k, mesh = args.k, _points(args)
    if mesh is None:
        axes = [np.arange(args.grid) / args.grid] * k
        mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, k)
    vals = weyl_sum_batch(mesh, args.X)
    if args.alpha is not None:  # one point: printed, and written only to --out
        print(f"{vals[0].real:.12g} {vals[0].imag:+.12g}i")
    out = args.out or (None if args.alpha is not None else "weyl_grid.csv")
    if out:
        _write_csv(out, [f"alpha_{j + 1}" for j in range(k)] + ["re", "im"],
                   np.column_stack([mesh, vals.real, vals.imag]).tolist())
    return EXIT_OK


def cmd_complete(args):
    v = complete_sum(args.q, args.a)
    print(f"{v.real:.12g} {v.imag:+.12g}i  |S|={abs(v):.12g}")
    return EXIT_OK


def cmd_integral(args):
    r = oscillatory_integral(args.beta, args.X, tol=args.tol)
    print(f"{r.value.real:.12g} {r.value.imag:+.12g}i  "
          f"err~{r.error_estimate:.3g} panels={r.panels}")
    return EXIT_OK


def cmd_local(args):
    t0 = time.perf_counter()
    n = _one_per_degree(args, "n")
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
    if args.method == "euler" and (args.csv or args.qmax is not None):
        flag = "--csv" if args.csv else "--qmax"
        raise ValidationError(f"{flag} needs --method qsum or both")
    if args.method == "qsum" and args.pmax is not None:
        raise ValidationError("--pmax needs --method euler or both")
    params = _params_from_args(args)
    n = _one_per_degree(args, "n")
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
            except NonConvergedError as exc:  # reported, not fatal
                out["main_term_error"] = str(exc)
    payload = _finalize(out, args, t0, seed=args.seed)
    _emit(payload, args.out)
    return EXIT_OK


def cmd_arcs(args):
    d = DissectionParams.from_scale(args.X, args.k, l_exponent=args.l_exponent)
    pts = _points(args)
    if pts is None:
        pts = substream(args.seed, 0).random((args.points or 10, args.k))
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


def _write_experiment(out_path, blob, result):
    """Write an experiment blob, and the CSV of its result's rows if it has any."""
    Path(out_path).parent.mkdir(parents=True, exist_ok=True)
    Path(out_path).write_text(blob)
    if "rows" in result:
        header = sorted({k2 for row in result["rows"] for k2 in row
                         if not isinstance(row[k2], (dict, list))})
        _write_csv(Path(out_path).with_suffix(".csv"), header,
                   [[row.get(h, "") for h in header] for row in result["rows"]])


def cmd_experiment(args):
    t0 = time.perf_counter()
    cfg = ExperimentConfig.load(args.config)
    cache = ResultCache()
    key = cache.key("experiment:" + cfg.name, cfg.canonical())
    out_path = args.out or f"{cfg.name}_result.json"
    _, run, summary = _EXPERIMENTS[cfg.name]
    blob = None if args.no_cache else cache.get(key)
    if blob is not None:
        print(f"cache hit -> {out_path}")
        blob = blob.decode()
        # a complex value is read back from the {"re", "im"} object _jsonable wrote
        result = json.loads(blob, object_hook=lambda o: complex(o["re"], o["im"])
                            if o.keys() == {"re", "im"} else o)["result"]
    else:
        try:
            result = run(cfg.options)
        except BudgetExceededError as exc:
            partial = {"experiment": cfg.name, "partial": True,
                       "work_done": exc.work_done, "error": str(exc),
                       "meta": {"code_version": code_version()}}
            _write_experiment(out_path, json.dumps(partial, indent=2) + "\n", {})
            print(f"wrote partial artifact {out_path}")
            raise
        payload = _finalize({"experiment": cfg.name, "config": json.loads(cfg.canonical()),
                             "result": result}, args, t0, seed=cfg.options.get("seed"))
        payload["meta"]["config_hash"] = config_hash(cfg.canonical())
        blob = json.dumps(payload, indent=2, sort_keys=True, default=_jsonable) + "\n"
        cache.put(key, blob.encode())
    _write_experiment(out_path, blob, result)
    print(f"wrote {out_path}")
    print(f"summary: {summary(result)}")
    return EXIT_OK


def cmd_verify(args):
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

class _Parser(argparse.ArgumentParser):
    """No abbreviated flags, and usage errors raise ``ValidationError`` (subcommands too)."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        raise ValidationError(message)


def build_parser():
    p = _Parser(prog="hk", description="power-sum system laboratory")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)
    target = _Parser(add_help=False)  # the --s, --k, --n of count, local and densities
    target.add_argument("--s", type=positive_int, required=True)
    target.add_argument("--k", type=positive_int, required=True)
    target.add_argument("--n", type=_INTS, required=True, help="comma-separated target")

    c = sub.add_parser("count", parents=[target], help="exact representation count")
    c.add_argument("--variant", type=_variant, default="pure",
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
    v.add_argument("--X", type=_INTS, required=True, help="scale or comma list of scales")
    v.add_argument("--budget", type=int, default=50_000_000)
    v.add_argument("--out", default=None)
    v.set_defaults(func=cmd_vinogradov)

    kinds = sub.add_parser("sums", help="exponential sums and integrals").add_subparsers(
        dest="kind", required=True)
    w = kinds.add_parser("weyl", help="Weyl sums at one point, a lattice or CSV rows")
    w.add_argument("--k", type=positive_int, default=2)
    w.add_argument("--X", type=float, default=10.0)
    points = w.add_mutually_exclusive_group(required=True)
    points.add_argument("--alpha", type=_FLOATS, help="one point: --k comma-separated floats")
    points.add_argument("--grid", type=positive_int,
                        help="emit CSV of f on the N^k lattice of [0,1)^k")
    points.add_argument("--csv", help="CSV of alpha rows to evaluate in batch")
    w.add_argument("--out", help="CSV of the sums (default weyl_grid.csv, none with --alpha)")
    w.set_defaults(func=cmd_weyl)
    cs = kinds.add_parser("complete", help="complete sum S(q, a)")
    cs.add_argument("--q", type=int, required=True)
    cs.add_argument("--a", type=_INTS, required=True)
    cs.set_defaults(func=cmd_complete)
    i = kinds.add_parser("integral", help="oscillatory integral")
    i.add_argument("--beta", type=_FLOATS, required=True)
    i.add_argument("--X", type=float, default=10.0)
    i.add_argument("--tol", type=float, default=None)
    i.set_defaults(func=cmd_integral)

    lo = sub.add_parser("local", parents=[target], help="local solubility report")
    lo.add_argument("--seed", type=int, default=0)
    lo.add_argument("--budget", type=int, default=2_000_000)
    lo.add_argument("--out", default=None)
    lo.set_defaults(func=cmd_local)

    d = sub.add_parser("densities", parents=[target], help="series / integral / main term")
    d.add_argument("--variant", type=_variant, default="pure")
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
    d.add_argument("--samples", type=positive_int, help="Monte-Carlo samples per slab "
                   "width (default 2000000; needs --mc)")
    d.add_argument("--seed", type=int, default=7)
    d.add_argument("--csv", default=None,
                   help="dump (q, A(q)) rows (needs --method qsum or both)")
    d.add_argument("--out", default=None)
    d.set_defaults(func=cmd_densities)

    a = sub.add_parser("arcs", help="classify frequency points")
    a.add_argument("--k", type=positive_int, required=True)
    a.add_argument("--X", type=float, required=True)
    # --Q replaces the dissection that --l-exponent sets
    cutoff = a.add_mutually_exclusive_group()
    cutoff.add_argument("--Q", type=float, help="1-d membership mode at this explicit cutoff")
    cutoff.add_argument("--l-exponent", dest="l_exponent", type=float)
    points = a.add_mutually_exclusive_group()
    points.add_argument("--csv", help="CSV of alpha rows to classify")
    points.add_argument("--alpha", type=_FLOATS, help="one point: --k comma-separated floats")
    # no default of 10: argparse's exclusion check skips a value that is the default
    points.add_argument("--points", type=positive_int,
                        help="random points to classify (default 10)")
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
    ver.add_argument("--k", type=positive_int, default=2)
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
    try:
        args = build_parser().parse_args(argv)
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
