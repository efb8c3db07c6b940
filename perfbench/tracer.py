"""Span tracing of the seqreorder layers, driven by a table of bindings.

Each layer name maps to the ``(module, attribute)`` bindings through which
the library reaches it. A binding is wrapped where it is looked up: ``cpi``
imports ``protein_embedding`` by name, so ``seqreorder.cpi`` gets its own
wrapper next to ``seqreorder.encoder``. A binding that no longer exists is
reported as absent instead of failing, so layer names stay stable while
the library changes underneath them.

Spans (name, start, end, parent) are kept in memory and written out when
the run ends. A span's self time is its duration minus the time covered by
its child spans. Count metrics are taken from the shapes and arguments of
the wrapped calls; bytes derived from shapes are labelled as computed.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from pathlib import Path

import numpy as np

# Inference forwards are encoder forwards outside a training step; CPI
# forwards are those made on behalf of the CPI head.
_TRAINING_SPAN = "pretrain.step"
_CPI_SPANS = ("cli.finetune",)
_CPI_PREFIX = "cpi."


def _attention_cache(args, kwargs, result):
    x = args[0]
    heads = kwargs["heads"] if "heads" in kwargs else args[4]
    b, t = x.shape[0], x.shape[1]
    return {"cache_bytes": int(b) * int(heads) * int(t) * int(t) * 8}


def _encoder_forward(args, kwargs, result):
    blocks = kwargs["blocks"] if "blocks" in kwargs else args[1]
    lengths = kwargs["lengths"] if "lengths" in kwargs else args[2]
    return {
        "examples": int(blocks.shape[0]),
        "real": int(np.asarray(lengths).sum()),
        "positions": int(blocks.size),
        "rows": [hash(row.tobytes()) for row in blocks],
    }


def _zeroed_grad(args, kwargs, result):
    target, q = args[0], args[1]
    eps = kwargs["eps"] if "eps" in kwargs else (args[2] if len(args) > 2 else 1e-9)
    entries = np.asarray(getattr(q, "entries", q))
    matched = entries[np.arange(target.n), target.perm]
    live = (matched > eps) & (matched < 1.0)
    return {"matched": int(matched.size), "zeroed": int(matched.size - live.sum())}


def _checkpoint_bytes(args, kwargs, result):
    path = kwargs["path"] if "path" in kwargs else args[1]
    return {"bytes": Path(path).stat().st_size}


# layer name -> bindings; a binding is (module, attribute) or
# (module, attribute, hook), where hook(args, kwargs, result) returns the
# counts to attach to the span.
LAYERS: dict[str, list[tuple]] = {
    "nn.attention": [
        ("seqreorder.nn", "attention_forward", _attention_cache),
        ("seqreorder.nn", "attention_backward"),
    ],
    "nn.ffn": [("seqreorder.nn", "ffn_forward"), ("seqreorder.nn", "ffn_backward")],
    "nn.layernorm": [
        ("seqreorder.nn", "layernorm_forward"),
        ("seqreorder.nn", "layernorm_backward"),
    ],
    "nn.adam": [("seqreorder.nn", "adam_step")],
    "encoder": [
        ("seqreorder.encoder", "_forward_core", _encoder_forward),
        ("seqreorder.encoder", "_backward_core"),
        ("seqreorder.encoder", "predict_q"),
        ("seqreorder.encoder", "protein_embedding"),
        ("seqreorder.cpi", "protein_embedding"),
    ],
    "perm.sinkhorn": [("seqreorder.perm", "sinkhorn")],
    "perm.sinkhorn_vjp": [("seqreorder.perm", "sinkhorn_backward")],
    "perm.round": [("seqreorder.perm", "round_to_permutation")],
    "perm.refine": [("seqreorder.perm", "_lexicographic_refine")],
    "perm.loss": [
        ("seqreorder.perm", "reorder_loss_grad", _zeroed_grad),
        ("seqreorder.perm", "reorder_loss"),
    ],
    "augment.example": [
        ("seqreorder.augment", "make_pretrain_example"),
        ("seqreorder.pretrain", "make_pretrain_example"),
    ],
    "pretrain.run": [("seqreorder.pretrain", "pretrain_run")],
    "pretrain.step": [("seqreorder.pretrain", "pretrain_step")],
    "pretrain.heldout": [("seqreorder.pretrain", "heldout_accuracy")],
    "pretrain.checkpoint": [
        ("seqreorder.pretrain", "save_checkpoint", _checkpoint_bytes),
        ("seqreorder.pretrain", "load_checkpoint"),
    ],
    "cpi.finetune": [("seqreorder.cpi", "finetune_run")],
    "cpi.compound_fwd": [("seqreorder.cpi", "_compound_forward")],
    "cpi.compound_bwd": [("seqreorder.cpi", "_compound_backward")],
    "cpi.predict": [("seqreorder.cpi", "predict_pairs")],
    "cpi.protein_cache": [("seqreorder.cpi", "build_protein_cache")],
    "evaluation.metrics": [
        ("seqreorder.evaluation", "auroc"),
        ("seqreorder.evaluation", "auprc"),
        ("seqreorder.evaluation", "roc_curve"),
        ("seqreorder.evaluation", "pr_curve"),
        ("seqreorder.cpi", "auroc"),
    ],
    "evaluation.report": [("seqreorder.evaluation", "emit_report")],
    "evaluation.split": [("seqreorder.evaluation", "split_scenarios")],
    "corpus.parse": [
        ("seqreorder.corpus", "parse_dataset"),
        ("seqreorder.cli", "parse_dataset"),
    ],
    "cli.synth": [("seqreorder.cli", "cmd_synth")],
    "cli.split": [("seqreorder.cli", "cmd_split")],
    "cli.pretrain": [("seqreorder.cli", "cmd_pretrain")],
    "cli.finetune": [("seqreorder.cli", "cmd_finetune")],
    "cli.evaluate": [("seqreorder.cli", "cmd_evaluate")],
    "cli.export_embeddings": [("seqreorder.cli", "cmd_export_embeddings")],
}

# per-layer metric -> (unit, better)
PER_LAYER_METRICS: dict[str, tuple[str, str]] = {
    "nn.attention.self_s": ("s", "lower"),
    "nn.attention.cache_mb": ("computed_MB", "lower"),
    "nn.ffn.self_s": ("s", "lower"),
    "nn.layernorm.self_s": ("s", "lower"),
    "nn.adam.self_s": ("s", "lower"),
    "encoder.self_s": ("s", "lower"),
    "encoder.real_token_frac": ("ratio", "higher"),
    "encoder.examples_per_call": ("examples/call", "higher"),
    "perm.sinkhorn.self_s": ("s", "lower"),
    "perm.sinkhorn_vjp.self_s": ("s", "lower"),
    "perm.round.self_s": ("s", "lower"),
    "perm.refine.self_s": ("s", "lower"),
    "perm.loss.self_s": ("s", "lower"),
    "perm.calls": ("count", "lower"),
    "perm.refine_calls": ("count", "lower"),
    "perm.zeroed_grad_frac": ("ratio", "lower"),
    "augment.example_s": ("s", "lower"),
    "pretrain.heldout_s": ("s", "lower"),
    "pretrain.checkpoint_s": ("s", "lower"),
    "pretrain.checkpoint_bytes": ("bytes", "lower"),
    "cpi.compound_fwd_s": ("s", "lower"),
    "cpi.compound_bwd_s": ("s", "lower"),
    "cpi.predict_s": ("s", "lower"),
    "cpi.protein_cache_s": ("s", "lower"),
    "cpi.embeds_per_protein": ("embeds/protein", "lower"),
    "cpi.seen_both_auroc": ("ratio", "higher"),
    "evaluation.metrics_s": ("s", "lower"),
    "corpus.parse_s": ("s", "lower"),
    "cli.synth_s": ("s", "lower"),
    "cli.split_s": ("s", "lower"),
    "cli.pretrain_s": ("s", "lower"),
    "cli.finetune_s": ("s", "lower"),
    "cli.evaluate_s": ("s", "lower"),
    "cli.export_embeddings_s": ("s", "lower"),
    "trace_overhead": ("s", "lower"),
}

_PERM_CALL_SPANS = ("perm.sinkhorn", "perm.sinkhorn_vjp", "perm.round", "perm.loss")


class Span:
    __slots__ = ("name", "start", "end", "parent", "counts")

    def __init__(self, name: str, start: float, parent: int) -> None:
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.counts: dict | None = None


class Tracer:
    """Wraps the bindings of ``LAYERS`` and records spans while active."""

    def __init__(self, layers: dict[str, list[tuple]] = LAYERS) -> None:
        self.layers = layers
        self.spans: list[Span] = []
        self.active = False
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    # ---- installation ----

    def install(self) -> None:
        for name, bindings in self.layers.items():
            for binding in bindings:
                module_name, attr = binding[0], binding[1]
                hook = binding[2] if len(binding) > 2 else None
                try:
                    module = importlib.import_module(module_name)
                except ImportError:
                    module = None
                original = getattr(module, attr, None)
                if not callable(original):
                    self.absent.append(f"{name}: {module_name}.{attr}")
                    continue
                self._originals.append((module, attr, original))
                setattr(module, attr, self._wrap(original, name, hook))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals.clear()

    def _wrap(self, fn, name: str, hook):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            index = len(tracer.spans)
            span = Span(name, 0.0, tracer._stack[-1] if tracer._stack else -1)
            tracer.spans.append(span)
            tracer._stack.append(index)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
            if hook is not None:
                try:
                    span.counts = hook(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError, ValueError):
                    # The call's signature changed: its counts are absent.
                    note = f"{name}: counts from {fn.__module__}.{fn.__name__}"
                    if note not in tracer.absent:
                        tracer.absent.append(note)
            return result

        return traced

    # ---- queries ----

    def ancestors(self, index: int):
        parent = self.spans[index].parent
        while parent >= 0:
            yield self.spans[parent]
            parent = self.spans[parent].parent

    def self_times(self) -> dict[str, float]:
        """Per layer: summed span durations minus the time of child spans."""
        out: dict[str, float] = {}
        for span in self.spans:
            out[span.name] = out.get(span.name, 0.0) + (span.end - span.start)
            if span.parent >= 0:
                parent = self.spans[span.parent].name
                out[parent] = out.get(parent, 0.0) - (span.end - span.start)
        return out

    def inclusive_times(self) -> dict[str, float]:
        """Per layer: summed durations of spans not nested in the same layer."""
        out: dict[str, float] = {}
        for i, span in enumerate(self.spans):
            if any(a.name == span.name for a in self.ancestors(i)):
                continue
            out[span.name] = out.get(span.name, 0.0) + (span.end - span.start)
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps([span.name, span.start, span.end, span.parent]) + "\n")

    def layer_metrics(self, bodies: int) -> dict[str, float]:
        """Per-layer metrics, per traced body (``bodies`` of them)."""
        self_t = self.self_times()
        incl = self.inclusive_times()
        per = 1.0 / max(bodies, 1)
        m: dict[str, float] = {}
        for layer in ("nn.attention", "nn.ffn", "nn.layernorm", "nn.adam", "encoder"):
            m[f"{layer}.self_s"] = self_t.get(layer, 0.0) * per
        for layer in ("perm.sinkhorn", "perm.sinkhorn_vjp", "perm.round", "perm.refine", "perm.loss"):
            m[f"{layer}.self_s"] = self_t.get(layer, 0.0) * per
        for metric, layer in (
            ("augment.example_s", "augment.example"),
            ("pretrain.heldout_s", "pretrain.heldout"),
            ("pretrain.checkpoint_s", "pretrain.checkpoint"),
            ("cpi.compound_fwd_s", "cpi.compound_fwd"),
            ("cpi.compound_bwd_s", "cpi.compound_bwd"),
            ("cpi.predict_s", "cpi.predict"),
            ("cpi.protein_cache_s", "cpi.protein_cache"),
            ("evaluation.metrics_s", "evaluation.metrics"),
            ("corpus.parse_s", "corpus.parse"),
        ):
            m[metric] = incl.get(layer, 0.0) * per
        for command in ("synth", "split", "pretrain", "finetune", "evaluate", "export_embeddings"):
            m[f"cli.{command}_s"] = incl.get(f"cli.{command}", 0.0) * per

        cache_by_parent: dict[int, int] = {}
        real = positions = 0
        infer_examples = infer_calls = 0
        cpi_rows: list[int] = []
        matched = zeroed = 0
        ckpt_bytes = 0
        perm_calls = refine_calls = 0
        for i, span in enumerate(self.spans):
            if span.name in _PERM_CALL_SPANS:
                perm_calls += 1
            elif span.name == "perm.refine":
                refine_calls += 1
            c = span.counts
            if not c:
                continue
            if "cache_bytes" in c:
                cache_by_parent[span.parent] = cache_by_parent.get(span.parent, 0) + c["cache_bytes"]
            if "positions" in c:
                real += c["real"]
                positions += c["positions"]
                names = [a.name for a in self.ancestors(i)]
                if _TRAINING_SPAN not in names:
                    infer_examples += c["examples"]
                    infer_calls += 1
                if any(n in _CPI_SPANS or n.startswith(_CPI_PREFIX) for n in names):
                    cpi_rows.extend(c["rows"])
            if "matched" in c:
                matched += c["matched"]
                zeroed += c["zeroed"]
            if "bytes" in c:
                ckpt_bytes += c["bytes"]
        m["nn.attention.cache_mb"] = max(cache_by_parent.values(), default=0) / 1e6
        m["encoder.real_token_frac"] = real / positions if positions else 0.0
        m["encoder.examples_per_call"] = infer_examples / infer_calls if infer_calls else 0.0
        m["perm.calls"] = perm_calls * per
        m["perm.refine_calls"] = refine_calls * per
        m["perm.zeroed_grad_frac"] = zeroed / matched if matched else 0.0
        m["pretrain.checkpoint_bytes"] = ckpt_bytes * per
        m["cpi.embeds_per_protein"] = len(cpi_rows) / len(set(cpi_rows)) if cpi_rows else 0.0
        return m

    def shares(self, run_s: float, bodies: int) -> dict[str, float]:
        """Each layer's self time as a share of the traced body time."""
        total = run_s * max(bodies, 1)
        return {
            name: round(t / total, 4)
            for name, t in sorted(self.self_times().items(), key=lambda kv: -kv[1])
            if total > 0
        }
