"""Look-ahead gradient computation (Section IV-C, Equations 3–4).

The look-ahead scheme redefines the loss of layer *i* as

    ``L_new,i = L_i + λ · (L_{i+1} + … + L_final)``

so that earlier layers receive feedback from later ones.  Differentiating and
using the fact that losses of *earlier* layers do not depend on the weights of
layer *i*, the weight gradient can be rewritten as

    ``∂L_new,i/∂W_i = (1 − λ) · ∂L_i/∂W_i + λ · ∂S/∂W_i``

where ``S = Σ_j L_j`` is the sum of **all** per-layer losses.

One backward sweep per mini-batch computes it, which is how Algorithm 1
keeps the cost at one forward pass and one gradient sweep.  A unit's
backward is linear in its output gradient.  Let ``g_i`` be unit *i*'s own
activity gradient and ``u_i`` the gradient arriving from deeper units.  Then
the weight gradient above is that of the single signal ``p = g_i + λ·u_i``,
while the gradient unit *i* sends down is still that of ``d = g_i + u_i``.
The sweep walks each unit's module tree top-down carrying the pair (p, d):

* every weighted layer accumulates its parameter gradients once, from p
  (one INT8 weight-gradient GEMM and one quantization of its signal);
* the input gradient of p is formed only while weighted layers remain below
  in the unit, that of d only if a unit lies below;
* where λ = 1, or in the top unit (``u = 0``), p and d are one signal and
  every input gradient is formed once.

So the bottom unit forms no input gradient at all, and at λ = 0 no unit
does: there p = g_i and every layer updates from its own loss only, which
is plain layer-local FF.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.goodness import GoodnessFunction
from repro.core.losses import FFLoss
from repro.nn.containers import ResidualAdd, Sequential, SqueezeExcite
from repro.nn.module import Module

#: The (p, d) signal pair at one point of the sweep.  Either may be ``None``
#: (not needed below this point); ``d is p`` when both are one signal.
Pair = Tuple[Optional[np.ndarray], Optional[np.ndarray]]


def unit_losses_and_grads(
    activations: Sequence[np.ndarray],
    goodness: GoodnessFunction,
    ff_loss: FFLoss,
    positive: bool,
) -> tuple[List[float], List[np.ndarray]]:
    """Per-unit mean losses and activity gradients ``∂L_i/∂y_i``.

    The activity gradient is the tensor FF-INT8 quantizes to INT8 before the
    weight-gradient GEMM (``g_Y`` in Figure 4 of the paper).
    """
    losses: List[float] = []
    grads: List[np.ndarray] = []
    for activity in activations:
        value = goodness.value(activity)
        losses.append(ff_loss.mean_loss(value, positive))
        grads.append(ff_loss.activity_grad(activity, goodness.grad, value, positive))
    return losses, grads


def _zip(fn: Callable, a: Pair, b: Pair) -> Pair:
    """Apply ``fn(a_k, b_k)`` to both signals, once when each pair is one."""
    if a[1] is a[0] and b[1] is b[0]:
        out = None if a[0] is None else fn(a[0], b[0])
        return out, out
    p = None if a[0] is None else fn(a[0], b[0])
    d = None if a[1] is None else fn(a[1], b[1])
    return p, d


def _map(fn: Callable, pair: Pair) -> Pair:
    return _zip(lambda grad, _: fn(grad), pair, pair)


def _add(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return (a + b).astype(np.float32)


def _has_params(module: Module) -> bool:
    return next(module.named_parameters(), None) is not None


def _sweep(module: Module, pair: Pair, weighted_below: bool) -> Pair:
    """Backward through ``module``: parameter gradients from p, input pair.

    ``weighted_below`` says whether weighted layers precede ``module`` in
    its unit; only then is p's input gradient formed.
    """
    if isinstance(module, Sequential):
        layers = module.layers()
        below = [weighted_below]
        for layer in layers[:-1]:
            below.append(below[-1] or _has_params(layer))
        for layer, weighted in zip(reversed(layers), reversed(below)):
            pair = _sweep(layer, pair, weighted)
        return pair
    if isinstance(module, ResidualAdd):
        branch = _sweep(module.branch, pair, weighted_below)
        return _zip(_add, branch, _sweep(module.shortcut, pair, weighted_below))
    if isinstance(module, SqueezeExcite):
        gate = _sweep(module.gate, _map(module.gate_grad, pair), weighted_below)
        if not weighted_below:
            pair = (None, pair[1])
        return _zip(module.input_grad, pair, gate)
    # A leaf: weighted layers split their backward, the rest have none.
    if _has_params(module):
        module.accumulate_param_grads(pair[0])
        input_grad = module.input_grad
    else:
        input_grad = module.backward
    if not weighted_below:
        pair = (None, pair[1])
    return _map(input_grad, pair)


def accumulate_lookahead_gradients(
    units: Sequence[Module],
    activity_grads: Sequence[np.ndarray],
    lam: float,
) -> None:
    """Accumulate the look-ahead weight gradients for every unit.

    One sweep, top unit first; each unit's activation cache is cleared as
    soon as its part of the sweep is done.

    Parameters
    ----------
    units:
        FF units in forward order; their forward pass for the current batch
        must already have run with activation caching enabled.
    activity_grads:
        ``∂L_i/∂y_i`` for each unit (from :func:`unit_losses_and_grads`).
    lam:
        Look-ahead coefficient λ of Equation 3.  ``lam == 0`` is plain
        layer-local FF.
    """
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"lambda must lie in [0, 1], got {lam}")
    if len(units) != len(activity_grads):
        raise ValueError(
            f"got {len(units)} units but {len(activity_grads)} activity gradients"
        )

    chained = lam > 0.0
    upstream: Optional[np.ndarray] = None  # u_i, from the units above
    for index in reversed(range(len(units))):
        own = activity_grads[index]
        if upstream is None:
            p = d = own
        else:
            d = own + upstream
            p = d if lam == 1.0 else own + lam * upstream
        if not chained or index == 0:
            d = None
        upstream = _sweep(units[index], (p, d), weighted_below=False)[1]
        units[index].clear_cache()

