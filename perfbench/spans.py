"""Span tracing around the public calls into each meadowacp layer.

Nothing under ``src/`` is changed: :class:`Tracer` rebinds module
attributes of the already-imported ``meadowacp`` package to timing
wrappers while it is enabled, and restores them afterwards.

A span records (name, start, end, parent span, operation id).  Spans
stay in memory and are written out once, at the end of the run.  A
layer's self time is the time of its spans minus the part covered by
their child spans.  Counts (NF sizes, LTS sizes, rendered characters,
quantity nodes) are taken from the results at the same boundaries,
outside the timed interval, so the time spent counting is attributed to
no layer.

Recursive functions are wrapped at their outermost call only: while the
wrapper runs, the defining module's global (or class attribute) points
back at the original function, so the recursion itself pays no tracing
cost.
"""

from __future__ import annotations

import gzip
import sys
from array import array
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("speclang", "meadow", "terms", "normalize", "lts", "axioms", "cli")


def nf_sizes(bt):
    """(shared nodes, unfolded nodes) of a basic term.

    Shared nodes are the distinct ``BasicTerm`` and ``Summand`` objects
    reachable from ``bt`` (by identity); unfolded nodes count every
    occurrence, as if the DAG were printed as a tree.  Iterative, so
    deep normal forms do not hit the recursion limit.
    """
    size = {}  # id(BasicTerm) -> unfolded size, once its continuations are done
    summands = set()
    stack = [(bt, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            total = 1
            for s in node.summands:
                summands.add(id(s))
                total += 1 if s.continuation is None else 1 + size[id(s.continuation)]
            size[id(node)] = total
        elif id(node) not in size:
            stack.append((node, True))
            stack.extend(
                (s.continuation, False)
                for s in node.summands
                if s.continuation is not None and id(s.continuation) not in size
            )
    return len(size) + len(summands), size[id(bt)]


def quantity_nodes(q) -> int:
    count = 0
    stack = [q]
    while stack:
        t = stack.pop()
        count += 1
        for attr in ("lhs", "rhs", "arg"):
            child = getattr(t, attr, None)
            if child is not None:
                stack.append(child)
    return count


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.span_name = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("l")
        self.span_op = array("l")
        self._stack = []  # open spans: [index, time covered by children]
        self.self_time = defaultdict(float)
        self.total_time = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self.op_id = 0
        self._patches = []  # (owner, attribute, original)
        self._ops = {}

    # -- spans ---------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        i = self._name_ids.get(name)
        if i is None:
            i = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return i

    def wrap(self, name, fn, after=None, rebind=None):
        """A wrapper timing ``fn`` as span ``name``.

        ``after(result, args)`` takes counts from the result, outside the
        span.  ``rebind=(owner, attr)`` points ``owner.attr`` back at ``fn``
        for the duration of the call, so recursive calls are not traced.
        """
        nid = self._name_id(name)
        stack = self._stack
        tracer = self

        def traced(*args, **kwargs):
            if rebind is not None:
                setattr(rebind[0], rebind[1], fn)
            parent = stack[-1][0] if stack else -1
            idx = len(tracer.span_start)
            tracer.span_name.append(nid)
            tracer.span_start.append(0.0)
            tracer.span_end.append(0.0)
            tracer.span_parent.append(parent)
            tracer.span_op.append(tracer.op_id)
            frame = [idx, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                if rebind is not None:
                    setattr(rebind[0], rebind[1], traced)
                tracer.span_start[idx] = t0
                tracer.span_end[idx] = t1
                tracer.self_time[name] += (t1 - t0) - frame[1]
                tracer.total_time[name] += t1 - t0
                tracer.calls[name] += 1
                if stack:
                    stack[-1][1] += t1 - t0
            if after is not None:
                t2 = perf_counter()
                after(result, args)
                if stack:
                    # counting is tracing work, not the parent's
                    stack[-1][1] += perf_counter() - t2
            return result

        return traced

    def reset_totals(self):
        """Start per-pass accumulators afresh; recorded spans are kept."""
        self.self_time.clear()
        self.total_time.clear()
        self.calls.clear()
        self.counts.clear()

    def run_op(self, body, name="bench.op"):
        """Run one operation under a span ``name`` with a fresh operation id."""
        wrapper = self._ops.get(name)
        if wrapper is None:
            wrapper = self._ops[name] = self.wrap(name, lambda body: body())
        self.op_id += 1
        return wrapper(body)

    # -- patching -------------------------------------------------------------

    def _rebind_everywhere(self, fn, wrapper):
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "meadowacp" or modname.startswith("meadowacp.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._patches.append((mod, attr, fn))
                    setattr(mod, attr, wrapper)

    def enable(self):
        """Wrap the public calls of every layer (and the hnf and rendering
        entry points, which have no public wrapper of their own)."""
        # the package re-exports functions named like their modules
        # (normalize), so take the modules from sys.modules
        mods = {layer: sys.modules[f"meadowacp.{layer}"] for layer in LAYERS}
        speclang, meadow, terms = mods["speclang"], mods["meadow"], mods["terms"]
        normalize, lts, axioms, cli = mods["normalize"], mods["lts"], mods["axioms"], mods["cli"]

        counts = self.counts

        def count_nf(result, args):
            dag, tree = nf_sizes(result)
            counts["normalize.nf_dag_nodes"] += dag
            counts["normalize.nf_tree_nodes"] += tree

        def count_lts(result, args):
            counts["lts.states"] += result.num_states
            counts["lts.transitions"] += len(result.transitions)

        def count_render(result, args):
            counts["normalize.render_chars"] += len(result)

        def count_eval(result, args):
            counts["meadow.qnodes"] += quantity_nodes(args[0])

        def count_meadow_checked(result, args):
            counts["meadow.checked"] += sum(r.checked for r in result.axioms)

        def count_instances(result, args):
            counts["axioms.instances"] += sum(r.checked for r in result.axioms)

        plan = [
            (speclang, "parse_spec", "speclang.parse_spec", None, False),
            (speclang, "parse_term", "speclang.parse_term", None, False),
            (speclang, "pretty_term", "speclang.pretty_term", None, False),
            (meadow, "eval_quantity", "meadow.eval_quantity", count_eval, True),
            (meadow, "check_meadow_axioms", "meadow.check_meadow_axioms",
             count_meadow_checked, False),
            (terms, "inline_definitions", "terms.inline_definitions", None, True),
            (terms, "free_process_vars", "terms.free_process_vars", None, False),
            (terms, "free_quantity_vars", "terms.free_quantity_vars", None, False),
            (normalize, "normalize", "normalize.normalize", count_nf, False),
            (normalize, "equal_terms", "normalize.equal_terms", None, False),
            (normalize, "_hnf", "normalize.hnf", None, True),
            (lts, "build_lts", "lts.build_lts", count_lts, False),
            (lts, "bisimilar", "lts.bisimilar", None, False),
            (lts, "to_dot", "lts.to_dot", None, False),
            (axioms, "check_acp_axioms", "axioms.check_acp_axioms", count_instances, False),
            (axioms, "check_enriched_axioms", "axioms.check_enriched_axioms",
             count_instances, False),
            (axioms, "check_derived", "axioms.check_derived", count_instances, False),
            (cli, "main", "cli.main", None, False),
        ]
        for mod, attr, name, after, recursive in plan:
            fn = getattr(mod, attr)
            wrapper = self.wrap(name, fn, after, (mod, attr) if recursive else None)
            self._rebind_everywhere(fn, wrapper)

        # rendering a normal form is str(BasicTerm), recursive through Summand
        bt = normalize.BasicTerm
        fn = bt.__str__
        self._patches.append((bt, "__str__", fn))
        bt.__str__ = self.wrap("normalize.render", fn, count_render, (bt, "__str__"))

    def disable(self):
        for owner, attr, fn in reversed(self._patches):
            setattr(owner, attr, fn)
        self._patches.clear()

    # -- reports ----------------------------------------------------------------

    def layer_self_time(self):
        out = {layer: 0.0 for layer in LAYERS}
        for name, t in self.self_time.items():
            layer = name.split(".", 1)[0]
            if layer in out:
                out[layer] += t
        return out

    def write_spans(self, path):
        """One line per span: name, start, end, parent index, operation id."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("index\tname\tstart\tend\tparent\top\n")
            names = self.names
            for i in range(len(self.span_start)):
                fh.write(
                    f"{i}\t{names[self.span_name[i]]}\t{self.span_start[i]:.9f}\t"
                    f"{self.span_end[i]:.9f}\t{self.span_parent[i]}\t{self.span_op[i]}\n"
                )
