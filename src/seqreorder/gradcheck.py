"""Finite-difference verification of the analytic gradients.

Two component families are checked: the normalization backward on its own
(several unroll depths) and the full model — ``pretrain.objective``, the
batch-mean reordering loss and gradient that every pretraining step
descends, through the projection and every encoder layer down to the
embeddings, on a batch of two short proteins whose ragged blocks and
unequal lengths exercise the packed layout and its grouping by length.
Errors are relative with a small floor so exactly-zero gradients do not
divide by zero."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import encoder as enc
from . import perm
from .augment import NoiseSpec, RAcutConfig, make_pretrain_example
from .corpus import encode_protein
from .pretrain import objective

FD_STEP = 1e-6
SINKHORN_TOL = 1e-5
MODEL_TOL = 1e-4
MODEL_COORDS = 20
_REL_FLOOR = 1e-6


@dataclass
class ComponentReport:
    name: str
    max_rel_err: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.max_rel_err < self.tol


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), _REL_FLOOR)


def _sinkhorn_component(m: int, rng: np.random.Generator, perturb: float) -> ComponentReport:
    q = np.log(rng.uniform(0.1, 10.0, (5, 5)))
    upstream = rng.normal(size=(5, 5))
    cfg = perm.SinkhornConfig(m=m)
    analytic = perm.sinkhorn_backward(q, cfg, upstream)
    if perturb:
        analytic = analytic.copy()
        analytic[0, 0] += perturb
    worst = 0.0
    for i in range(5):
        for j in range(5):
            qp = q.copy()
            qp[i, j] += FD_STEP
            qm = q.copy()
            qm[i, j] -= FD_STEP
            fp = float((perm.sinkhorn(qp, cfg) * upstream).sum())
            fm = float((perm.sinkhorn(qm, cfg) * upstream).sum())
            worst = max(worst, _rel(analytic[i, j], (fp - fm) / (2 * FD_STEP)))
    return ComponentReport(f"sinkhorn_backward_m{m}", worst, SINKHORN_TOL)


def _model_component(rng: np.random.Generator, perturb: float) -> ComponentReport:
    cfg = enc.EncoderConfig(embed_dim=8, layers=1, heads=2, ffn_dim=16, n=3, f_max=4)
    state = enc.init(cfg, seed=int(rng.integers(1 << 30)))
    # Proteins shorter than n * f_max give ragged blocks, and unequal lengths
    # put the two examples in different attention groups.
    examples = [
        make_pretrain_example(
            encode_protein(seq),
            RAcutConfig(n=3, l_max=12),
            NoiseSpec(mask_prob=0.15),
            seed=int(rng.integers(1 << 30)),
        )
        for seq in ("ACDEFGHI", "KLMNP")
    ]
    sk = perm.SinkhornConfig(m=3)

    def loss_value() -> float:
        return float(objective(state, examples, sk)[0].mean())

    _, _, grads = objective(state, examples, sk)
    if perturb:
        grads[sorted(grads)[0]].reshape(-1)[0] += perturb

    keys = sorted(state.params)
    worst = 0.0
    checked = 0
    while checked < MODEL_COORDS:
        key = keys[checked % len(keys)]  # round-robin so every layer type is hit
        flat = state.params[key].reshape(-1)
        ix = int(rng.integers(flat.size))
        old = flat[ix]
        flat[ix] = old + FD_STEP
        fp = loss_value()
        flat[ix] = old - FD_STEP
        fm = loss_value()
        flat[ix] = old
        numeric = (fp - fm) / (2 * FD_STEP)
        worst = max(worst, _rel(float(grads[key].reshape(-1)[ix]), numeric))
        checked += 1
    return ComponentReport("encoder_full_model", worst, MODEL_TOL)


def run_gradcheck(seed: int = 0, perturb: float = 0.0) -> list[ComponentReport]:
    """All components; ``perturb`` (test hook) corrupts one analytic value."""
    rng = np.random.default_rng(seed)
    reports = [_sinkhorn_component(m, rng, perturb) for m in (1, 3, 10)]
    reports.append(_model_component(rng, perturb))
    return reports
