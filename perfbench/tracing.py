"""Span tracer for the benchmark's traced runs.

The tracer replaces public bmpnet functions at the module attribute their
callers look up (``bmpnet.training.grad_analytic`` as ``train`` calls it,
``bmpnet.border.adam_update`` as ``train_eps`` calls it, and so on), so
``src/`` stays untouched and untraced runs execute the program as shipped.
Each wrapped call records one span: id, name, start, end, parent id, pass
id and a small tag (row count, clipped flag, scheme size).  Spans stay in
memory for the pass and are reduced to counts, busy time and self time per
layer, where a layer is the bmpnet module that defines the function.
"""

import importlib
import os
import statistics
from time import perf_counter

import numpy as np

LAYERS = ("tensor", "network", "scheme", "training", "border",
          "experiment", "stats", "verify", "cli")


def _rows(index):
    return lambda args, kwargs, result: int(np.shape(args[index])[0])


def _clipped(args, kwargs, result):
    return int(result[0] is not args[0][0])


def _scheme_n(args, kwargs, result):
    return args[0].n


def _reconstruct_mults(args, kwargs, result):
    s = args[0]
    return s.r * (s.n * s.n) ** 3 * 2


def _bmp_mults(args, kwargs, result):
    """(multiplications, multiplications with a zero operand) of one
    product, from the shapes and the zero pattern of the factors."""
    factors = [np.asarray(f) for f in args[0]]
    shared = factors[0].shape[0]
    term_nz = None
    total = zeros = 0
    for h in range(shared):
        for k, f in enumerate(factors):
            piece = np.expand_dims(np.take(f, h, axis=k), axis=k) != 0
            if term_nz is None:
                term_nz = piece
                continue
            both = term_nz & piece
            total += both.size
            zeros += both.size - int(np.count_nonzero(both))
            term_nz = both
        term_nz = None
    return total, zeros


# (module, attribute, span name, tagger).  The span name is the defining
# module and function; the attribute lives in the module whose code calls it.
SPANS = (
    ("bmpnet.training", "gen_dataset", "training.gen_dataset", None),
    ("bmpnet.training", "init_scheme", "scheme.init_scheme", None),
    ("bmpnet.training", "init_adam", "training.init_adam", None),
    ("bmpnet.training", "forward_fast_batch", "scheme.forward_fast_batch",
     _rows(1)),
    ("bmpnet.training", "mse", "training.mse", _rows(0)),
    ("bmpnet.training", "grad_analytic", "training.grad_analytic", None),
    ("bmpnet.training", "clip_gradients", "training.clip_gradients",
     _clipped),
    ("bmpnet.training", "adam_step", "training.adam_step", None),
    ("bmpnet.training", "train", "training.train", None),
    ("bmpnet.border", "gen_dataset", "training.gen_dataset", None),
    ("bmpnet.border", "init_eps_scheme", "border.init_eps_scheme", None),
    ("bmpnet.border", "init_adam_params", "training.init_adam_params", None),
    ("bmpnet.border", "evaluate", "border.evaluate", None),
    ("bmpnet.border", "forward_fast_batch", "scheme.forward_fast_batch",
     _rows(1)),
    ("bmpnet.border", "mse", "training.mse", _rows(0)),
    ("bmpnet.border", "grad_analytic", "training.grad_analytic", None),
    ("bmpnet.border", "coefficient_grads", "border.coefficient_grads", None),
    ("bmpnet.border", "clip_gradients", "training.clip_gradients",
     _clipped),
    ("bmpnet.border", "adam_update", "training.adam_update", None),
    ("bmpnet.border", "train_eps", "border.train_eps", None),
    ("bmpnet.experiment", "train", "training.train", None),
    ("bmpnet.experiment", "per_rank_stats", "experiment.per_rank_stats",
     None),
    ("bmpnet.experiment", "adjacent_welch", "experiment.adjacent_welch",
     None),
    ("bmpnet.experiment", "export", "experiment.export", None),
    ("bmpnet.experiment", "summarize", "stats.summarize", None),
    ("bmpnet.experiment", "welch_one_tailed", "stats.welch_one_tailed",
     None),
    ("bmpnet.cli", "per_rank_stats", "experiment.per_rank_stats", None),
    ("bmpnet.cli", "adjacent_welch", "experiment.adjacent_welch", None),
    ("bmpnet.cli", "export", "experiment.export", None),
    ("bmpnet.verify", "reconstruct", "scheme.reconstruct",
     _reconstruct_mults),
    ("bmpnet.verify", "matmul_tensor", "tensor.matmul_tensor", None),
    ("bmpnet.verify", "frobenius_sq", "tensor.frobenius_sq", None),
    ("bmpnet.verify", "slot_contribution_norms",
     "verify.slot_contribution_norms", None),
    ("bmpnet.verify", "residual_sq_exact", "verify.residual_sq_exact", None),
    ("bmpnet.verify", "verify_scheme", "verify.verify_scheme", _scheme_n),
    ("bmpnet.verify", "normalize_slots", "verify.normalize_slots", None),
    ("bmpnet.verify", "round_scheme", "verify.round_scheme", None),
    ("bmpnet.scheme", "padded_square_factors",
     "scheme.padded_square_factors", None),
    ("bmpnet.network", "bmp", "tensor.bmp", _bmp_mults),
    ("bmpnet.network", "blow", "tensor.blow", None),
    ("bmpnet.network", "forget", "tensor.forget", None),
    ("bmpnet.network", "contraction", "tensor.contraction", None),
    ("bmpnet.network", "zeros_matching", "tensor.zeros_matching", None),
    ("bmpnet.network", "validate", "network.validate", None),
    ("bmpnet.network", "total_direct", "network.total_direct", None),
    ("bmpnet.network", "total_bmp", "network.total_bmp", None),
    ("bmpnet.network", "strassen_pipeline", "network.strassen_pipeline",
     None),
)

# scheme objects built per step: counted, not timed
COUNTED = (
    ("bmpnet.training", "BilinearScheme", "training.schemes"),
    ("bmpnet.border", "BilinearScheme", "border.schemes"),
    ("bmpnet.border", "EpsScheme", "border.schemes"),
)

# taggers that do real work get a span of their own, so their time is
# reported as tracing cost rather than as self time of the caller
_COSTLY_TAGGERS = {"tensor.bmp"}


class Tracer:
    """Records spans of wrapped bmpnet calls, one pass at a time."""

    def __init__(self):
        self.begin_pass(0)
        self._next = 1
        self._stack = [0]
        self._saved = []

    # -- recording -------------------------------------------------------

    def begin_pass(self, pass_id):
        self.spans = []
        self.counts = {}
        self.sweeps = []
        self.cli_bytes = 0
        self.pass_id = pass_id

    def call(self, name, fn, tagger, args, kwargs):
        sid = self._next
        self._next += 1
        parent = self._stack[-1]
        self._stack.append(sid)
        t0 = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            self._stack.pop()
        tag = None
        if tagger is not None:
            if name in _COSTLY_TAGGERS:
                tag = self.call("trace.tag", tagger, None,
                                (args, kwargs, result), {})
            else:
                tag = tagger(args, kwargs, result)
        self.spans.append((sid, name, t0, t1, parent, self.pass_id, tag))
        return result

    def _span_wrapper(self, name, fn, tagger):
        def wrapped(*args, **kwargs):
            return self.call(name, fn, tagger, args, kwargs)
        wrapped.__wrapped__ = fn
        return wrapped

    def _count_wrapper(self, key, cls):
        def construct(*args, **kwargs):
            self.counts[key] = self.counts.get(key, 0) + 1
            return cls(*args, **kwargs)
        construct.__wrapped__ = cls
        return construct

    def _sweep_wrapper(self, fn):
        """experiment.sweep: also keep the records and completion times."""
        def wrapped(cfg, threads=1, progress=None):
            arrivals = []

            def seen(rec):
                arrivals.append((perf_counter(), rec.wall_seconds))
                if progress is not None:
                    progress(rec)
            started = perf_counter()
            records = self.call("experiment.sweep", fn, None, (cfg,),
                                {"threads": threads, "progress": seen})
            self.sweeps.append({
                "start": started, "end": perf_counter(),
                "workers": max(1, int(threads)), "arrivals": arrivals,
                "run_s": [rec.wall_seconds for rec in records]})
            return records
        wrapped.__wrapped__ = fn
        return wrapped

    def _main_wrapper(self, fn):
        """cli.main: also count the bytes left under --out."""
        def wrapped(argv=None):
            code = self.call("cli.main", fn, None, (argv,), {})
            if argv and "--out" in argv:
                out = argv[argv.index("--out") + 1]
                for root, _, files in os.walk(out):
                    self.cli_bytes += sum(
                        os.path.getsize(os.path.join(root, f))
                        for f in files)
            return code
        wrapped.__wrapped__ = fn
        return wrapped

    # -- installation ----------------------------------------------------

    def install(self):
        def put(module, attr, value):
            mod = importlib.import_module(module)
            self._saved.append((mod, attr, getattr(mod, attr)))
            setattr(mod, attr, value)

        for module, attr, name, tagger in SPANS:
            fn = getattr(importlib.import_module(module), attr)
            put(module, attr, self._span_wrapper(name, fn, tagger))
        for module, attr, key in COUNTED:
            cls = getattr(importlib.import_module(module), attr)
            put(module, attr, self._count_wrapper(key, cls))
        for module in ("bmpnet.experiment", "bmpnet.cli"):
            fn = getattr(importlib.import_module(module), "sweep")
            put(module, "sweep", self._sweep_wrapper(fn))
        cli = importlib.import_module("bmpnet.cli")
        put("bmpnet.cli", "main", self._main_wrapper(cli.main))

    def uninstall(self):
        while self._saved:
            mod, attr, orig = self._saved.pop()
            setattr(mod, attr, orig)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- output ----------------------------------------------------------

    def dump(self, fh):
        """Write this pass's spans, one tab-separated line each."""
        for sid, name, t0, t1, parent, pass_id, tag in self.spans:
            fh.write("%d\t%s\t%r\t%r\t%d\t%d\t%s\n"
                     % (sid, name, t0, t1, parent, pass_id,
                        "" if tag is None else tag))


def _per(total, count, scale):
    return total / count * scale if count else 0.0


def _mean_ms(durs):
    return sum(durs) / len(durs) * 1e3 if durs else 0.0


def reduce_pass(tracer, pass_s, batch_size):
    """Per-layer metrics of one traced pass of ``pass_s`` seconds.

    Per-step figures divide a trainer's time in one function by its
    optimizer steps; ``_ms`` figures of verify and network are means per
    call, the other ``_ms`` and ``_s`` figures are totals per pass.
    """
    spans = sorted(tracer.spans)
    child_sum = {}
    for sid, _, t0, t1, parent, _, _ in spans:
        child_sum[parent] = child_sum.get(parent, 0.0) + (t1 - t0)

    # rows by name, each with the nearest enclosing trainer: plain
    # (train) or border (train_eps)
    rows = {}
    inner = {0: None}
    self_time = {}
    root_time = 0.0
    for sid, name, t0, t1, parent, _, tag in spans:
        inner[sid] = name if name in ("training.train", "border.train_eps") \
            else inner[parent]
        rows.setdefault(name, []).append(
            (sid, t1 - t0, parent, tag, inner[parent]))
        layer = name.split(".")[0]
        self_time[layer] = self_time.get(layer, 0.0) \
            + (t1 - t0) - child_sum.get(sid, 0.0)
        if parent == 0:
            root_time += t1 - t0

    def select(name, ctx="any", keep=None):
        return [(sid, dur, parent, tag)
                for sid, dur, parent, tag, c in rows.get(name, ())
                if (ctx == "any" or c == ctx)
                and (keep is None or keep(sid, parent, tag))]

    def busy(name, ctx="any", keep=None):
        return sum(dur for _, dur, _, _ in select(name, ctx, keep))

    def calls(name, ctx="any", keep=None):
        return len(select(name, ctx, keep))

    def durs(name, keep=None):
        return [dur for _, dur, _, _ in select(name, keep=keep)]

    def in_step(sid, parent, tag):
        return tag <= batch_size

    def validation(sid, parent, tag):
        return tag > batch_size

    m = {}
    tr = "training.train"
    steps = calls("training.adam_step", tr)
    validate = (busy("scheme.forward_fast_batch", tr, validation)
                + busy("training.mse", tr, validation))
    gen = busy("training.gen_dataset", tr)
    m["training.steps"] = steps
    m["training.step_us"] = _per(busy(tr) - validate - gen, steps, 1e6)
    m["training.loop_self_us"] = _per(
        sum(dur - child_sum.get(sid, 0.0) for sid, dur, _, _ in select(tr)),
        steps, 1e6)
    m["training.forward_us"] = _per(
        busy("scheme.forward_fast_batch", tr, in_step), steps, 1e6)
    m["training.mse_us"] = _per(busy("training.mse", tr, in_step),
                                steps, 1e6)
    m["training.grad_us"] = _per(busy("training.grad_analytic", tr),
                                 steps, 1e6)
    m["training.clip_us"] = _per(busy("training.clip_gradients", tr),
                                 steps, 1e6)
    m["training.adam_us"] = _per(busy("training.adam_step", tr), steps, 1e6)
    m["training.schemes_per_step"] = _per(
        tracer.counts.get("training.schemes", 0), steps, 1)
    m["training.clip_frac"] = _per(
        calls("training.clip_gradients", tr, lambda s, p, t: t == 1),
        steps, 1)
    m["training.validate_s"] = validate
    m["training.gen_dataset_s"] = gen

    # in train_eps, an evaluate directly followed by a validation-size
    # forward belongs to the validation or probe pass, not to a step
    bd = "border.train_eps"
    evals = {r[0] for r in select("border.evaluate", bd)}
    val_fwd = {r[0] for r in select("scheme.forward_fast_batch", bd,
                                    validation)}
    order = sorted(evals | val_fwd)
    val_eval = {a for a, b in zip(order, order[1:])
                if a in evals and b in val_fwd}
    b_steps = calls("training.adam_update", bd)
    b_validate = (busy("scheme.forward_fast_batch", bd, validation)
                  + busy("training.mse", bd, validation)
                  + busy("border.evaluate", bd,
                         lambda s, p, t: s in val_eval))
    m["border.steps"] = b_steps
    m["border.step_us"] = _per(
        busy(bd) - b_validate - busy("training.gen_dataset", bd),
        b_steps, 1e6)
    m["border.evaluate_us"] = _per(
        busy("border.evaluate", bd, lambda s, p, t: s not in val_eval),
        b_steps, 1e6)
    m["border.coeff_grads_us"] = _per(busy("border.coefficient_grads", bd),
                                      b_steps, 1e6)
    m["border.clip_us"] = _per(busy("training.clip_gradients", bd),
                               b_steps, 1e6)
    m["border.adam_us"] = _per(busy("training.adam_update", bd),
                               b_steps, 1e6)
    m["border.validate_s"] = b_validate
    m["border.schemes_per_step"] = _per(
        tracer.counts.get("border.schemes", 0), b_steps, 1)

    runs = [t for sw in tracer.sweeps for t in sw["run_s"]]
    busy_frac = [sum(sw["run_s"]) / (sw["workers"]
                                     * (sw["end"] - sw["start"]))
                 for sw in tracer.sweeps]
    first = [sw["arrivals"][0][0] - sw["start"] - sw["arrivals"][0][1]
             for sw in tracer.sweeps if sw["arrivals"]]
    m["experiment.runs"] = len(runs)
    m["experiment.run_s_median"] = statistics.median(runs) if runs else 0.0
    m["experiment.run_s_sum"] = sum(runs)
    m["experiment.busy_frac"] = statistics.median(busy_frac) \
        if busy_frac else 0.0
    m["experiment.first_result_s"] = statistics.median(first) \
        if first else 0.0
    m["experiment.export_s"] = busy("experiment.export")

    m["cli.bytes_written"] = tracer.cli_bytes
    m["stats.welch_ms"] = 1e3 * (busy("stats.summarize")
                                 + busy("stats.welch_one_tailed"))

    m["verify.certify_n2_ms"] = _mean_ms(
        durs("verify.verify_scheme", lambda s, p, t: t == 2))
    m["verify.certify_n4_ms"] = _mean_ms(
        durs("verify.verify_scheme", lambda s, p, t: t == 4))
    m["verify.normalize_ms"] = _mean_ms(durs("verify.normalize_slots"))
    m["verify.round_ms"] = _mean_ms(durs("verify.round_scheme"))
    m["verify.slot_norms_ms"] = _mean_ms(
        durs("verify.slot_contribution_norms"))
    m["scheme.reconstruct_s"] = busy("scheme.reconstruct")
    m["scheme.reconstruct_mults"] = sum(
        tag for _, _, _, tag in select("scheme.reconstruct"))

    bmp_tags = [tag for _, _, _, tag in select("tensor.bmp")]
    mults = sum(t[0] for t in bmp_tags)
    m["tensor.bmp_ms"] = busy("tensor.bmp") * 1e3
    m["tensor.bmp_mults"] = mults
    m["tensor.bmp_zero_frac"] = _per(sum(t[1] for t in bmp_tags), mults, 1)
    for op in ("blow", "forget", "contraction", "frobenius_sq"):
        m["tensor.%s_ms" % op] = busy("tensor." + op) * 1e3

    def from_bench(sid, parent, tag):
        return parent == 0

    m["network.pipeline_ms"] = _mean_ms(durs("network.strassen_pipeline"))
    m["network.total_bmp_ms"] = _mean_ms(
        durs("network.total_bmp", from_bench))
    m["network.total_direct_ms"] = _mean_ms(
        durs("network.total_direct", from_bench))
    m["network.validate_ms"] = busy("network.validate") * 1e3

    for layer in LAYERS:
        m["%s.self_s" % layer] = self_time.get(layer, 0.0)
    m["trace.self_s"] = self_time.get("trace", 0.0)
    m["bench.self_s"] = pass_s - root_time
    m["trace.pass_s"] = pass_s
    m["trace.layer_frac"] = sum(self_time.get(layer, 0.0)
                                for layer in LAYERS) / pass_s
    m["trace.spans"] = len(spans)
    return m
