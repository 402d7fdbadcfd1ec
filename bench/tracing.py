"""Per-layer tracing, installed from outside the package for the traced run.

`Tracer.install()` replaces the public entry points of each `cartanfree`
layer with timing wrappers.  The layers are the package's modules:

    scalars      GaussianRational + - * mul_int inverse; parse_scalar, scan_scalar
    polynomials  Polynomial shift, mul_linear, scale, + and -; MultiPolynomial
                 shift_var, mul_linear_var, scale, +; parse_polynomial
    linalg       SpanBasis.insert, SpanBasis.contains
    algebras     bracket_pairs of every algebra kind, AlgebraElement.bracket,
                 jacobi_check, centrality_check, virasoro_embedding_check,
                 parse_element
    modules      act_basis of every family, ModuleSpec.act, build_action_table,
                 ActionTable.to_json / from_json, derive_parameters
    analysis     the public verification functions of analysis.py
    cli          cli.main

Every wrapped call is a span (id, parent id, name, start, end) kept in
memory.  A span's self time is its duration minus the time covered by the
wrapped calls it makes; a layer's `busy_s` sums the self time of its
spans.  The tracer's own bookkeeping runs outside every span's interval
but inside its parent's covered time, so it is charged to no layer.

Scalar operations run millions of times, so they are counted and timed
in aggregate instead of being recorded as spans.  A call made while the
same entry point is already innermost (parse_scalar calling scan_scalar,
__rsub__ calling __sub__) passes straight through and is not counted twice.
"""

from __future__ import annotations

import gzip
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

clock = time.perf_counter
PROBES = ("analysis.simplicity_probe", "analysis.tensor_irreducibility_probe")


def _bits(x) -> int:
    return max(abs(x.a).bit_length(), abs(x.b).bit_length(), x.d.bit_length())


def _is_int(x) -> bool:
    if isinstance(x, int):
        return True
    return getattr(x, "b", 1) == 0 and getattr(x, "d", 0) == 1


class Tracer:
    def __init__(self):
        self.on = True
        self.calls: dict[str, int] = defaultdict(int)
        self.busy: dict[str, float] = defaultdict(float)
        self.spans: list[tuple] = []
        self.names: dict[str, int] = {}
        # frames: [covered time of wrapped callees, span id, entry-point name]
        self.stack: list[list] = [[0.0, 0, None]]
        self.next_id = 0
        # scalars
        self.in_scalar = False
        self.scalar_ops = 0
        self.scalar_int_ops = 0
        self.scalar_busy = 0.0
        self.coeff_bits_max = 0
        # per-entry-point observations
        self.shift_degrees = [0, 0]  # sum, count
        self.insert_useful = 0
        self.insert_ncols = 0
        self.row_bits_max = 0
        self.repeats: dict[str, int] = defaultdict(int)
        self.seen: dict[str, set] = defaultdict(set)
        self.act_in_probes = 0
        self.probe_rank_sum = 0
        self.output_bytes = 0

    # -- check boundaries --------------------------------------------------------

    def begin_check(self) -> None:
        """Repeat ratios count repeats within one check only."""
        self.seen.clear()

    @contextmanager
    def paused(self):
        """Run benchmark-side code (verdict checks) without recording it."""
        self.on = False
        try:
            yield
        finally:
            self.on = True

    # -- wrappers ------------------------------------------------------------------

    def _span(self, name: str, fn, before=None, after=None):
        tracer = self
        index = self.names.setdefault(name, len(self.names))

        def wrapper(*args, **kwargs):
            stack = tracer.stack
            parent = stack[-1]
            if not tracer.on or parent[2] == name:
                return fn(*args, **kwargs)
            t_enter = clock()
            token = before(args) if before is not None else None
            tracer.next_id += 1
            frame = [0.0, tracer.next_id, name]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
            tracer.calls[name] += 1
            tracer.busy[name] += (t1 - t0) - frame[0]
            tracer.spans.append((frame[1], parent[1], index, t0, t1))
            if after is not None:
                after(args, kwargs, result, token)
            parent[0] += clock() - t_enter
            return result

        return wrapper

    def _scalar_op(self, fn):
        tracer = self

        def wrapper(x, *rest):
            if tracer.in_scalar or not tracer.on:
                return fn(x, *rest)
            t_enter = clock()
            tracer.in_scalar = True
            t0 = clock()
            try:
                result = fn(x, *rest)
            finally:
                t1 = clock()
                tracer.in_scalar = False
            if result is not NotImplemented:
                tracer.scalar_ops += 1
                tracer.scalar_busy += t1 - t0
                if x.b == 0 and x.d == 1 and all(_is_int(o) for o in rest):
                    tracer.scalar_int_ops += 1
                bits = _bits(result)
                if bits > tracer.coeff_bits_max:
                    tracer.coeff_bits_max = bits
            tracer.stack[-1][0] += clock() - t_enter
            return result

        return wrapper

    # -- observations made after a wrapped call -------------------------------------

    def _repeat(self, name: str, key) -> None:
        seen = self.seen[name]
        if key in seen:
            self.repeats[name] += 1
        else:
            seen.add(key)

    def _after_shift(self, args, kwargs, result, token) -> None:
        coeffs = args[0].coeffs
        if coeffs:
            self.shift_degrees[0] += len(coeffs) - 1
            self.shift_degrees[1] += 1

    def _before_insert(self, args):
        return list(args[0].pivots)

    def _after_insert(self, args, kwargs, result, pivots_before) -> None:
        basis = args[0]
        self.insert_ncols += basis.ncols
        if not result:
            return
        self.insert_useful += 1
        k = 0  # the new row sits where the pivot lists first differ
        while k < len(pivots_before) and basis.pivots[k] == pivots_before[k]:
            k += 1
        bits = max((_bits(c) for c in basis.rows[k] if c), default=0)
        if bits > self.row_bits_max:
            self.row_bits_max = bits

    def _after_bracket_pairs(self, args, kwargs, result, token) -> None:
        algebra, x, y = args
        self._repeat("algebras.bracket_pairs", (algebra._key(), x, y))

    def _after_act_basis(self, args, kwargs, result, token) -> None:
        spec = args[0]
        sym = kwargs.get("sym", args[1] if len(args) > 1 else None)
        f = kwargs.get("f", args[2] if len(args) > 2 else None)
        self._repeat("modules.act_basis", (spec, sym, f))
        if any(frame[2] in PROBES for frame in self.stack):
            self.act_in_probes += 1

    def _after_probe(self, args, kwargs, result, token) -> None:
        # the outermost probe only: simplicity_probe delegates tensor specs
        if not any(frame[2] in PROBES for frame in self.stack):
            self.probe_rank_sum += sum(result.seed_dims.values())

    def _before_cli(self, args):
        return sys.stdout.tell()

    def _after_cli(self, args, kwargs, result, start) -> None:
        self.output_bytes += len(sys.stdout.getvalue()[start:].encode())

    # -- installation ----------------------------------------------------------------

    def install(self) -> None:
        """Wrap the entry points listed in the module docstring."""
        from cartanfree import algebras, analysis, cli, linalg, modules, polynomials, scalars

        for op in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "mul_int", "inverse"):
            setattr(scalars.GaussianRational, op, self._scalar_op(getattr(scalars.GaussianRational, op)))

        def method(cls, attr, name, **hooks):
            setattr(cls, attr, self._span(name, cls.__dict__[attr], **hooks))

        def function(module, attr, name, **hooks):
            original = getattr(module, attr)
            wrapper = self._span(name, original, **hooks)
            for mod in [m for n, m in sys.modules.items() if n == "cartanfree" or n.startswith("cartanfree.")]:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

        function(scalars, "parse_scalar", "scalars.parse")
        function(scalars, "scan_scalar", "scalars.parse")

        P, M = polynomials.Polynomial, polynomials.MultiPolynomial
        method(P, "shift", "polynomials.shift", after=self._after_shift)
        method(P, "mul_linear", "polynomials.mul_linear")
        method(P, "scale", "polynomials.scale")
        method(P, "__add__", "polynomials.addsub")
        method(P, "__sub__", "polynomials.addsub")
        for attr in ("shift_var", "mul_linear_var", "scale", "__add__"):
            method(M, attr, "polynomials.multi")
        function(polynomials, "parse_polynomial", "polynomials.parse")

        method(linalg.SpanBasis, "insert", "linalg.insert", before=self._before_insert, after=self._after_insert)
        method(linalg.SpanBasis, "contains", "linalg.contains")

        for cls in _subclasses(algebras.Algebra):
            if "bracket_pairs" in cls.__dict__:
                method(cls, "bracket_pairs", "algebras.bracket_pairs", after=self._after_bracket_pairs)
        method(algebras.AlgebraElement, "bracket", "algebras.element_bracket")
        function(algebras, "jacobi_check", "algebras.jacobi_check")
        function(algebras, "centrality_check", "algebras.centrality_check")
        function(algebras, "virasoro_embedding_check", "algebras.virasoro_embedding_check")
        function(algebras, "parse_element", "algebras.parse_element")

        for cls in _subclasses(modules.ModuleSpec):
            if "act_basis" in cls.__dict__:
                method(cls, "act_basis", "modules.act_basis", after=self._after_act_basis)
        method(modules.ModuleSpec, "act", "modules.act")
        function(modules, "build_action_table", "modules.table")
        method(modules.ActionTable, "to_json", "modules.table")
        setattr(
            modules.ActionTable,
            "from_json",
            staticmethod(self._span("modules.table", modules.ActionTable.__dict__["from_json"].__func__)),
        )
        function(modules, "derive_parameters", "modules.derive_parameters")

        for name in PROBES:
            function(analysis, name.split(".")[1], name, after=self._after_probe)
        for attr in (
            "module_axiom_check",
            "submodule_invariance_check",
            "composition_series_check",
            "isomorphism_classify",
            "center_report",
        ):
            function(analysis, attr, f"analysis.{attr}")

        function(cli, "main", "cli.main", before=self._before_cli, after=self._after_cli)

    # -- results ---------------------------------------------------------------------

    def layer_busy(self, layer: str) -> float:
        if layer == "scalars":
            return self.scalar_busy
        return sum(t for name, t in self.busy.items() if name.split(".")[0] == layer)

    def metrics(self, overhead_ratio: float) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as {name: (value, unit)}."""
        calls, busy = self.calls, self.busy

        def ratio(a, b):
            return a / b if b else 0.0

        out = {
            "scalars.ops": (self.scalar_ops, "count"),
            "scalars.busy_s": (self.scalar_busy, "s"),
            "scalars.int_operand_share": (ratio(self.scalar_int_ops, self.scalar_ops), "ratio"),
            "scalars.coeff_bits_max": (self.coeff_bits_max, "bits"),
            "scalars.parse.calls": (calls["scalars.parse"], "count"),
            "polynomials.busy_s": (self.layer_busy("polynomials"), "s"),
        }
        for op in ("shift", "mul_linear", "scale", "addsub", "multi", "parse"):
            out[f"polynomials.{op}.calls"] = (calls[f"polynomials.{op}"], "count")
            out[f"polynomials.{op}.busy_s"] = (busy[f"polynomials.{op}"], "s")
        out["polynomials.shift.degree_mean"] = (ratio(*self.shift_degrees), "degree")
        out.update({
            "linalg.busy_s": (self.layer_busy("linalg"), "s"),
            "linalg.insert.calls": (calls["linalg.insert"], "count"),
            "linalg.insert.busy_s": (busy["linalg.insert"], "s"),
            "linalg.insert.useful_ratio": (ratio(self.insert_useful, calls["linalg.insert"]), "ratio"),
            "linalg.insert.ncols_mean": (ratio(self.insert_ncols, calls["linalg.insert"]), "cols"),
            "linalg.contains.calls": (calls["linalg.contains"], "count"),
            "linalg.contains.busy_s": (busy["linalg.contains"], "s"),
            "linalg.row_bits_max": (self.row_bits_max, "bits"),
            "algebras.busy_s": (self.layer_busy("algebras"), "s"),
            "algebras.bracket_pairs.calls": (calls["algebras.bracket_pairs"], "count"),
            "algebras.bracket_pairs.busy_s": (busy["algebras.bracket_pairs"], "s"),
            "algebras.bracket_pairs.repeat_ratio": (
                ratio(self.repeats["algebras.bracket_pairs"], calls["algebras.bracket_pairs"]), "ratio"),
            "algebras.element_bracket.calls": (calls["algebras.element_bracket"], "count"),
            "algebras.element_bracket.busy_s": (busy["algebras.element_bracket"], "s"),
            "algebras.jacobi_check.busy_s": (busy["algebras.jacobi_check"], "s"),
            "algebras.parse_element.calls": (calls["algebras.parse_element"], "count"),
            "modules.busy_s": (self.layer_busy("modules"), "s"),
            "modules.act_basis.calls": (calls["modules.act_basis"], "count"),
            "modules.act_basis.busy_s": (busy["modules.act_basis"], "s"),
            "modules.act_basis.repeat_ratio": (
                ratio(self.repeats["modules.act_basis"], calls["modules.act_basis"]), "ratio"),
            "modules.table.busy_s": (busy["modules.table"], "s"),
            "modules.derive_parameters.calls": (calls["modules.derive_parameters"], "count"),
            "modules.derive_parameters.busy_s": (busy["modules.derive_parameters"], "s"),
            "analysis.busy_s": (self.layer_busy("analysis"), "s"),
            "analysis.act_per_rank": (ratio(self.act_in_probes, self.probe_rank_sum), "ratio"),
            "cli.main.calls": (calls["cli.main"], "count"),
            "cli.main.busy_s": (busy["cli.main"], "s"),
            "cli.output_bytes": (self.output_bytes, "bytes"),
            "trace.overhead_ratio": (overhead_ratio, "ratio"),
        })
        return out

    def write_spans(self, path: Path) -> None:
        """Spans as gzipped CSV: id, parent id, name, start and end in ns from the first span."""
        names = {i: n for n, i in self.names.items()}
        origin = self.spans[0][3] if self.spans else 0.0
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("id,parent,name,start_ns,end_ns\n")
            for sid, parent, index, t0, t1 in self.spans:
                fh.write(f"{sid},{parent},{names[index]},{round((t0 - origin) * 1e9)},{round((t1 - origin) * 1e9)}\n")


def _subclasses(cls) -> list[type]:
    out = [cls]
    for sub in cls.__subclasses__():
        out += _subclasses(sub)
    return out
