"""Span recorder for the traced benchmark run.

The recorder patches polycox's public functions from outside: each
function is replaced in every polycox module that binds it (for example
``find_redexes`` in ``polycox.words``, ``polycox.paths`` and the package
namespace), and methods are replaced on their class.  A spanned call
records (name, start, end, parent, job); a counted call only bumps a
counter.  Ratios are computed at the same boundaries from the call's
arguments and results, before or after the call, never from program
internals.  Spans stay in memory until ``write`` at the end of the run.
"""

from __future__ import annotations

import contextlib
import gzip
import json
import sys
import time
import weakref
from array import array

import oracles
from polycox import completion, coxeter, garside, paths, serialize, tietze, words

LAYERS = ("words", "paths", "completion", "tietze", "coxeter", "garside", "serialize", "cli")


class Recorder:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.s_name = array("i")
        self.s_start = array("d")
        self.s_end = array("d")
        self.s_parent = array("i")
        self.s_job = array("i")
        self._stack: list[int] = []
        self._depth: list[int] = []
        self.inclusive: list[float] = []  # outermost-call time per name
        self.calls: list[int] = []
        self.job = -1
        self.n = {}  # named counters
        self._patches: list[tuple[object, str, object]] = []
        # per-job state for the ratios
        self._seen_norm_path: set[int] = set()
        self._final_branchings: dict[int, tuple[object, int]] = {}
        self._alpha_seen: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        # per-run state
        self._parabolic_types: set[tuple[int, int, int]] = set()

    # -- spans ---------------------------------------------------------------

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self._depth.append(0)
            self.inclusive.append(0.0)
            self.calls.append(0)
        return nid

    def open(self, nid: int) -> int:
        i = len(self.s_name)
        self.s_name.append(nid)
        self.s_parent.append(self._stack[-1] if self._stack else -1)
        self.s_job.append(self.job)
        self.s_end.append(0.0)
        self._stack.append(i)
        self._depth[nid] += 1
        self.calls[nid] += 1
        self.s_start.append(time.perf_counter())
        return i

    def close(self, i: int, nid: int) -> None:
        end = time.perf_counter()
        self.s_end[i] = end
        self._stack.pop()
        self._depth[nid] -= 1
        if self._depth[nid] == 0:
            self.inclusive[nid] += end - self.s_start[i]

    @contextlib.contextmanager
    def span(self, name: str):
        nid = self.name_id(name)
        i = self.open(nid)
        try:
            yield
        finally:
            self.close(i, nid)

    def count(self, key: str, k: int = 1) -> None:
        self.n[key] = self.n.get(key, 0) + k

    def begin_job(self) -> None:
        self._flush_job()
        self.job += 1

    def _flush_job(self) -> None:
        self.count("completion.branchings_final", sum(n for _, n in self._final_branchings.values()))
        self._final_branchings.clear()
        self._seen_norm_path.clear()
        self._alpha_seen.clear()

    # -- patching ------------------------------------------------------------

    def _replace_everywhere(self, orig, repl) -> None:
        for mod in list(sys.modules.values()):
            name = getattr(mod, "__name__", "")
            if name != "polycox" and not name.startswith("polycox."):
                continue
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, attr, repl)
                    self._patches.append((mod, attr, orig))

    def _replace_method(self, cls, attr: str, repl) -> None:
        self._patches.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, repl)

    def spanned(self, name: str, fn, before=None, after=None):
        nid = self.name_id(name)
        rec = self

        def wrapper(*a, **k):
            if before is not None:
                before(a, k)
            i = rec.open(nid)
            try:
                out = fn(*a, **k)
            finally:
                rec.close(i, nid)
            if after is not None:
                after(a, k, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, key: str, fn, before=None):
        n = self.n
        n.setdefault(key, 0)

        def wrapper(*a, **k):
            n[key] += 1
            if before is not None:
                before(a, k)
            return fn(*a, **k)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Patch every traced boundary; ``uninstall`` restores them."""
        sp, ev = self.spanned, self._replace_everywhere
        ev(words.find_redexes, sp("words.find_redexes", words.find_redexes))
        ev(paths.normalize, sp("paths.normalize", paths.normalize, before=self._before_normalize))
        ev(
            paths.normalize_path,
            sp("paths.normalize_path", paths.normalize_path, before=self._before_normalize_path),
        )
        ev(paths.compose, self.counted("paths.compose.calls", paths.compose))
        ev(paths.whisker, self.counted("paths.whisker.calls", paths.whisker))
        self._replace_method(
            paths.Path2, "__init__", self.counted("paths.Path2.constructed", paths.Path2.__init__)
        )
        ev(
            completion.critical_branchings,
            sp(
                "completion.critical_branchings",
                completion.critical_branchings,
                after=self._after_critical_branchings,
            ),
        )
        ev(
            completion.homotopical_complete,
            sp(
                "completion.homotopical_complete",
                completion.homotopical_complete,
                after=self._after_homotopical_complete,
            ),
        )
        ev(
            completion.triple_critical_branchings,
            sp(
                "completion.triple_critical_branchings",
                completion.triple_critical_branchings,
                after=lambda a, k, out: self.count("completion.triples", len(out)),
            ),
        )
        ev(
            completion.generating_triple_confluence,
            sp(
                "completion.generating_triple_confluence",
                completion.generating_triple_confluence,
                after=lambda a, k, out: self.count(
                    "completion.sphere_entries", len(out.lhs) + len(out.rhs)
                ),
            ),
        )
        self._replace_method(
            completion.Sphere3,
            "check",
            sp("completion.sphere_check", completion.Sphere3.check),
        )
        ev(tietze.validate_collapsible, sp("tietze.validate_collapsible", tietze.validate_collapsible))
        ev(
            tietze.homotopical_reduce,
            sp(
                "tietze.homotopical_reduce",
                tietze.homotopical_reduce,
                after=lambda a, k, out: self.count(
                    "tietze.cells_eliminated", len(a[0].cells) - len(out.cells)
                ),
            ),
        )
        ev(
            coxeter.enumerate_group,
            sp(
                "coxeter.enumerate_group",
                coxeter.enumerate_group,
                after=lambda a, k, out: self.count("coxeter.elements", out.size),
            ),
        )
        for fn in (
            garside.complete_garside,
            garside.garside_reduction_part,
            garside.artin_reduction_part,
        ):
            ev(fn, sp(f"garside.{fn.__name__}", fn))
        ev(
            garside.artin_coherent,
            sp("garside.artin_coherent", garside.artin_coherent, before=self._before_artin_coherent),
        )
        self._replace_method(
            garside.ArtinProjection,
            "alpha_path",
            self.counted(
                "garside.alpha_path.calls",
                garside.ArtinProjection.alpha_path,
                before=self._before_alpha_path,
            ),
        )
        ev(serialize.render_path, sp("serialize.render_path", serialize.render_path))
        ev(
            serialize.polygraph31_from_dict,
            sp("serialize.polygraph31_from_dict", serialize.polygraph31_from_dict),
        )
        ev(serialize.part_from_dict, sp("serialize.part_from_dict", serialize.part_from_dict))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield
        finally:
            self.uninstall()

    # -- ratio hooks (run outside the span they annotate) ----------------------

    def _before_normalize(self, a, k) -> None:
        memo = k["memo"] if "memo" in k else (a[4] if len(a) > 4 else None)
        if memo is not None and tuple(a[0]) in memo:
            self.count("paths.normalize.memo_hits")

    def _before_normalize_path(self, a, k) -> None:
        f = a[0]
        key = hash((f.source, f.steps))
        if key in self._seen_norm_path:
            self.count("paths.normalize_path.repeats")
        else:
            self._seen_norm_path.add(key)

    def _after_critical_branchings(self, a, k, out) -> None:
        pg = a[0]
        self.count("completion.branchings_returned", len(out))
        self._final_branchings[id(pg)] = (pg, len(out))

    def _after_homotopical_complete(self, a, k, out) -> None:
        self.count("completion.rules_adjoined", len(out.base.rules) - len(a[0].rules))

    def _before_alpha_path(self, a, k) -> None:
        proj, u, v = a[0], a[1], a[2]
        seen = self._alpha_seen.setdefault(proj, set())
        if (u, v) in seen:
            self.count("garside.alpha_path.repeats")
        else:
            seen.add((u, v))

    def _before_artin_coherent(self, a, k) -> None:
        m = (a[0] if a else k["mat"]).m
        for i, j, l in oracles.finite_triples(m):
            key = (m[i][j], m[i][l], m[j][l])
            self.count("garside.parabolics_finite")
            if key in self._parabolic_types:
                self.count("garside.parabolic_type_repeats")
            else:
                self._parabolic_types.add(key)

    # -- results ---------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Per layer: span durations minus the part their child spans cover."""
        child = array("d", bytes(8 * len(self.s_name)))
        for i, p in enumerate(self.s_parent):
            if p >= 0:
                child[p] += self.s_end[i] - self.s_start[i]
        out: dict[str, float] = {}
        for i, nid in enumerate(self.s_name):
            layer = self.names[nid].split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + (self.s_end[i] - self.s_start[i]) - child[i]
        return out

    def metrics(self) -> dict[str, float]:
        self._flush_job()
        n = self.n

        def incl(name: str) -> float:
            nid = self._ids.get(name)
            return self.inclusive[nid] if nid is not None else 0.0

        def calls(name: str) -> int:
            nid = self._ids.get(name)
            return self.calls[nid] if nid is not None else 0

        def ratio(num: float, base: float) -> float:
            return num / base if base else 0.0

        out: dict[str, float] = {}
        for name in (
            "words.find_redexes",
            "paths.normalize",
            "paths.normalize_path",
            "completion.critical_branchings",
            "completion.generating_triple_confluence",
            "completion.sphere_check",
            "coxeter.enumerate_group",
        ):
            out[f"{name}.calls"] = calls(name)
        for name in (
            "words.find_redexes",
            "paths.normalize",
            "paths.normalize_path",
            "completion.critical_branchings",
            "completion.homotopical_complete",
            "completion.triple_critical_branchings",
            "completion.generating_triple_confluence",
            "completion.sphere_check",
            "tietze.validate_collapsible",
            "tietze.homotopical_reduce",
            "coxeter.enumerate_group",
            "garside.complete_garside",
            "garside.garside_reduction_part",
            "garside.artin_reduction_part",
            "garside.artin_coherent",
            "serialize.write",
            "serialize.render_path",
            "serialize.part_from_dict",
            "cli.reduce",
        ):
            out[f"{name}.s"] = incl(name)
        out["serialize.read.s"] = incl("serialize.polygraph31_from_dict") + incl(
            "serialize.part_from_dict"
        )
        for key in (
            "paths.Path2.constructed",
            "paths.compose.calls",
            "paths.whisker.calls",
            "garside.alpha_path.calls",
            "completion.branchings_returned",
            "completion.branchings_final",
            "completion.rules_adjoined",
            "completion.triples",
            "completion.sphere_entries",
            "tietze.cells_eliminated",
            "coxeter.elements",
            "garside.parabolics_finite",
            "serialize.write.bytes",
        ):
            out[key] = n.get(key, 0)
        out["paths.normalize.memo_hit_ratio"] = ratio(
            n.get("paths.normalize.memo_hits", 0), out["paths.normalize.calls"]
        )
        out["paths.normalize_path.repeat_ratio"] = ratio(
            n.get("paths.normalize_path.repeats", 0), out["paths.normalize_path.calls"]
        )
        out["completion.overlap_recompute_ratio"] = ratio(
            out["completion.branchings_returned"], out["completion.branchings_final"]
        )
        out["garside.alpha_path.repeat_ratio"] = ratio(
            n.get("garside.alpha_path.repeats", 0), out["garside.alpha_path.calls"]
        )
        out["garside.parabolic_type_repeat_ratio"] = ratio(
            n.get("garside.parabolic_type_repeats", 0), out["garside.parabolics_finite"]
        )
        selfs = self.self_times()
        for layer in LAYERS:
            out[f"{layer}.self_s"] = selfs.get(layer, 0.0)
        out["trace.spans"] = len(self.s_name)
        return out

    def write(self, path) -> None:
        doc = {
            "names": self.names,
            "columns": ["name", "start", "end", "parent", "job"],
            "name": self.s_name.tolist(),
            "start": self.s_start.tolist(),
            "end": self.s_end.tolist(),
            "parent": self.s_parent.tolist(),
            "job": self.s_job.tolist(),
        }
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump(doc, fh)


class NullRecorder:
    """Stands in for the recorder on untraced passes."""

    @contextlib.contextmanager
    def span(self, name: str):
        yield

    def count(self, key: str, k: int = 1) -> None:
        pass

    def begin_job(self) -> None:
        pass

    @contextlib.contextmanager
    def installed(self):
        yield

