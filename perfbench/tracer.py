"""Outside-in tracer for the benchmark's traced passes.

The tracer wraps functions of ``schreierlab`` from outside the package:
module-level functions are rebound in every ``schreierlab`` module that
holds a reference (``from .spaces import norm`` copies the name into
``constructions``, ``trees`` and ``cli``, so rebinding only ``spaces.norm``
would lose those child spans), and methods are replaced on their class.
Spans (name, start, end, parent) go to flat arrays in memory and are
written out once, at the end of the pass.  Hot leaves that would flood
the span arrays (fundamental sequences, cursor steps) are counted only.
"""

import sys
from array import array
from collections import Counter
from time import perf_counter

DUAL_SPANS = ("spaces.dual_norm", "spaces.dual_assoc_norm",
              "spaces.primal_from_dual")
# per-space breakdown of spaces.norm (the implicit-norms spaces)
NORM_KINDS = {"T(S(1),1/2)": "T1", "T(S(2),1/2)": "T2",
              "T(S(w),1/2)": "Tw", "T(S(w+1),1/2)": "Tw1",
              "T(S(w^2),1/2)": "Tw2", "MT[(S(1),1/2),(S(2),1/4)]": "MT"}

# (metric, unit): the per-layer metrics of a traced run, grouped by layer
METRICS = [
    ("ordinal.fundamental_sequence.calls", "count"),
    ("families.cursor_start.misses", "count"),
    ("families.cursor_advance.misses", "count"),
    ("families.cursor_cache.entries", "count"),
    ("families.schreier_member.hits", "count"),
    ("families.schreier_member.misses", "count"),
    ("families.enumerate.s", "s"),
    ("families.enumerate.members", "count"),
    ("families.max_mass.s", "s"),
    ("spaces.norm.calls", "count"),
    ("spaces.norm.self_s", "s"),
] + [("spaces.norm.%s.s" % k, "s") for k in NORM_KINDS.values()] + [
    ("spaces.cursor.max_states", "count"),
    ("spaces.evaluator.seg_states", "count"),
    ("spaces.evaluator.chain_states", "count"),
    ("spaces.fsvector_add.calls", "count"),
    ("spaces.fsvector_add.s", "s"),
    ("spaces.norm_n.s", "s"),
    ("spaces.assoc_norm.s", "s"),
    ("spaces.dual_norm.s", "s"),
    ("spaces.dual_assoc_norm.s", "s"),
    ("spaces.primal_from_dual.s", "s"),
    ("spaces.dual.norm_calls", "count"),
    ("trees.certify_block_tree.s", "s"),
    ("trees.certify_block_tree.norm_calls", "count"),
    ("constructions.check_spreading_model.self_s", "s"),
    ("constructions.measure_asymptoticity.self_s", "s"),
    ("constructions.build_scc.s", "s"),
    ("constructions.gluing.s", "s"),
    ("constructions.distortion_scan.s", "s"),
    ("cli.main.s", "s"),
    ("cli.main.self_s", "s"),
    ("trace.overhead_s", "s"),
]


def _norm_name(space, *_args, **_kw):
    return "spaces.norm[%s]" % NORM_KINDS.get(str(space), "other")


class Tracer:
    def __init__(self):
        self.names, self._ids = [], {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts = Counter()
        self.max_states = 0
        self.paused = False
        self._evaluators = []

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    # -- wrappers ---------------------------------------------------------

    def span(self, fn, name, on_result=None):
        """Wrap fn so that each call records a span; name may be a
        function of the call's arguments, on_result maps the result."""
        fixed = None if callable(name) else self._id(name)

        def traced(*args, **kw):
            if self.paused:
                return fn(*args, **kw)
            i = len(self.start)
            self.name.append(fixed if fixed is not None else self._id(name(*args, **kw)))
            self.parent.append(self._stack[-1])
            self.end.append(0.0)
            self._stack.append(i)
            self.start.append(perf_counter())
            try:
                out = fn(*args, **kw)
            finally:
                self.end[i] = perf_counter()
                self._stack.pop()
            return out if on_result is None else on_result(out)

        return traced

    def counted(self, fn, key):
        def traced(*args, **kw):
            if not self.paused:
                self.counts[key] += 1
            return fn(*args, **kw)
        return traced

    def cursor(self, fn):
        def traced(*args, **kw):
            out = fn(*args, **kw)
            if not self.paused and len(out) > self.max_states:
                self.max_states = len(out)
            return out
        return traced

    def install(self):
        """Wrap the layers' functions; call after importing schreierlab."""
        from schreierlab import cli, constructions, families, ordinal, spaces, trees

        def rebind(module, attr, wrapper):
            original = getattr(module, attr)
            for mod in list(sys.modules.values()):
                if getattr(mod, "__name__", "").startswith("schreierlab"):
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)

        rebind(ordinal, "fundamental_sequence",
               self.counted(ordinal.fundamental_sequence,
                            "ordinal.fundamental_sequence.calls"))
        for attr in ("_cursor_start", "_cursor_advance"):
            rebind(spaces, attr, self.cursor(getattr(spaces, attr)))
        rebind(spaces, "norm", self.span(spaces.norm, _norm_name))
        for attr in ("norm_n", "assoc_norm", "dual_norm", "dual_assoc_norm",
                     "primal_from_dual"):
            rebind(spaces, attr, self.span(getattr(spaces, attr), "spaces." + attr))
        rebind(trees, "certify_block_tree",
               self.span(trees.certify_block_tree, "trees.certify_block_tree"))
        for attr in ("build_scc", "check_spreading_model",
                     "measure_asymptoticity", "distortion_scan",
                     "gluing_lemma1", "gluing_lemma2", "gluing_lemma3",
                     "gluing_lemma4"):
            rebind(constructions, attr,
                   self.span(getattr(constructions, attr), "constructions." + attr))
        rebind(cli, "main", self.span(cli.main, "cli.main"))

        fam = families.Family
        fam.enumerate = self.span(fam.enumerate, "families.enumerate",
                                  on_result=self._count_members)
        fam.max_mass = self.span(fam.max_mass, "families.max_mass")
        spaces.FsVector.__add__ = self.span(spaces.FsVector.__add__,
                                            "spaces.fsvector_add")
        init = spaces._Evaluator.__init__

        def register(ev, *args, **kw):
            init(ev, *args, **kw)
            if not self.paused:
                self._evaluators.append(ev)

        spaces._Evaluator.__init__ = register

    def _count_members(self, out):
        if hasattr(out, "__len__"):
            self.counts["families.enumerate.members"] += len(out)
            return out
        return self._counting(out)

    def _counting(self, members):
        for F in members:
            self.counts["families.enumerate.members"] += 1
            yield F

    def end_op(self):
        """Fold the memo sizes of the op's evaluators into the counts and
        drop them, so that evaluators never outlive their op."""
        for ev in self._evaluators:
            self.counts["spaces.evaluator.seg_states"] += len(ev._seg)
            self.counts["spaces.evaluator.chain_states"] += len(ev._chain)
        self._evaluators.clear()

    # -- results ----------------------------------------------------------

    def metrics(self, scale=1.0):
        """Per-layer values of the pass, without trace.overhead_s; span
        times are multiplied by scale."""
        from schreierlab import families

        n = len(self.start)
        dur = [(self.end[i] - self.start[i]) * scale for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            if self.parent[i] >= 0:
                child[self.parent[i]] += dur[i]
        names = [self.names[k] for k in self.name]
        is_norm = [nm.startswith("spaces.norm[") for nm in names]
        # spans are appended on entry, so a parent precedes its children
        in_norm, in_dual, in_cert = [False] * n, [False] * n, [False] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                in_norm[i] = in_norm[p] or is_norm[p]
                in_dual[i] = in_dual[p] or names[p] in DUAL_SPANS
                in_cert[i] = in_cert[p] or names[p] == "trees.certify_block_tree"

        total, self_s = Counter(), Counter()
        calls = Counter(names)
        dual_norms = cert_norms = 0
        for i, nm in enumerate(names):
            self_s[nm] += dur[i] - child[i]
            # only norm recurses (through derived spaces); count its
            # outermost spans so nested time is not counted twice
            if not (is_norm[i] and in_norm[i]):
                total[nm] += dur[i]
            if is_norm[i]:
                dual_norms += in_dual[i]
                cert_norms += in_cert[i]

        norm_names = [k for k in self_s if k.startswith("spaces.norm[")]
        info = {f: getattr(families, f).cache_info()
                for f in ("_start", "_advance", "schreier_member")}
        out = {
            "ordinal.fundamental_sequence.calls":
                self.counts["ordinal.fundamental_sequence.calls"],
            "families.cursor_start.misses": info["_start"].misses,
            "families.cursor_advance.misses": info["_advance"].misses,
            "families.cursor_cache.entries":
                info["_start"].currsize + info["_advance"].currsize,
            "families.schreier_member.hits": info["schreier_member"].hits,
            "families.schreier_member.misses": info["schreier_member"].misses,
            "families.enumerate.s": total["families.enumerate"],
            "families.enumerate.members": self.counts["families.enumerate.members"],
            "families.max_mass.s": total["families.max_mass"],
            "spaces.norm.calls": sum(calls[k] for k in norm_names),
            "spaces.norm.self_s": sum(self_s[k] for k in norm_names),
            "spaces.cursor.max_states": self.max_states,
            "spaces.evaluator.seg_states": self.counts["spaces.evaluator.seg_states"],
            "spaces.evaluator.chain_states": self.counts["spaces.evaluator.chain_states"],
            "spaces.fsvector_add.calls": calls["spaces.fsvector_add"],
            "spaces.fsvector_add.s": total["spaces.fsvector_add"],
            "spaces.dual.norm_calls": dual_norms,
            "trees.certify_block_tree.s": total["trees.certify_block_tree"],
            "trees.certify_block_tree.norm_calls": cert_norms,
            "constructions.check_spreading_model.self_s":
                self_s["constructions.check_spreading_model"],
            "constructions.measure_asymptoticity.self_s":
                self_s["constructions.measure_asymptoticity"],
            "constructions.build_scc.s": total["constructions.build_scc"],
            "constructions.gluing.s": sum(total["constructions.gluing_lemma%d" % k]
                                          for k in range(1, 5)),
            "constructions.distortion_scan.s": total["constructions.distortion_scan"],
            "cli.main.s": total["cli.main"],
            "cli.main.self_s": self_s["cli.main"],
        }
        for kind in NORM_KINDS.values():
            out["spaces.norm.%s.s" % kind] = total["spaces.norm[%s]" % kind]
        for attr in ("norm_n", "assoc_norm", "dual_norm", "dual_assoc_norm",
                     "primal_from_dual"):
            out["spaces.%s.s" % attr] = total["spaces." + attr]
        return out

    def write(self, path):
        """Write the spans as tab-separated name, start, end, parent."""
        with open(path, "w") as fh:
            fh.write("name\tstart\tend\tparent\n")
            for i in range(len(self.start)):
                fh.write("%s\t%.9f\t%.9f\t%d\n" % (self.names[self.name[i]],
                                                  self.start[i], self.end[i],
                                                  self.parent[i]))
