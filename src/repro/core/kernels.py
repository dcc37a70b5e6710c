"""Vectorized training and inference kernels (the modeling hot paths).

Two loops dominate the cost of the paper's procedure once simulation is
cheap: the per-epoch mini-batch backpropagation of every fold inside
:class:`~repro.core.training.StackedEnsembleTrainer`, and full-design-space
prediction (20,736-23,040 points per benchmark) inside
:class:`~repro.core.ensemble.EnsemblePredictor`.  This module implements
both as fused numpy kernels:

* :class:`TrainingKernel` runs a whole epoch of presentation-sampled
  mini-batch gradient descent with momentum as batched forward/backward
  matmuls.  Input validation happens once at construction, the epoch's
  presentations are gathered with a single fancy-index instead of one
  per batch, and the per-batch finite-guards of
  :meth:`FeedForwardNetwork.gradients` are hoisted to one cheap
  weight-finiteness check per epoch — non-finite values cannot
  "un-diverge" under gradient descent with momentum, so checking after
  the epoch detects the failure in the same epoch the old per-batch
  guards did.  It is the single-network reference the stacked kernel
  below is held against.
* :class:`EnsembleTrainingKernel` stacks the parameters of many
  identically shaped member networks — the k cross-validation folds of
  an ensemble, each with one output head per target — into flat
  ``(members, P)`` weight, velocity and gradient buffers, each layer a
  ``(members, fan_in + 1, fan_out)`` view into them, and runs
  forward/backprop for every *active* member as one batched matmul per
  layer per batch.  Backprop reads only pre-update weights, so the
  gradients of all layers land in the gradient buffer first and the
  Equation 3.2 momentum update then runs as five in-place operations
  over the flat buffers — elementwise the same products and sums the
  per-layer update made, so exact.  Per-batch pre-activation and delta
  buffers are allocated once per epoch shape.  Early stopping, restarts
  and quarantine become per-member active masks: a stopped or diverged
  member's row is excluded from the batched epoch (frozen in place),
  and a restart reseeds only that row.  The early-stopping checks of
  every member due one in the same epoch read batched weight health
  and one stacked forward pass
  (:meth:`~EnsembleTrainingKernel.members_weight_health`,
  :meth:`~EnsembleTrainingKernel.predict_members`).
* :func:`ensemble_predict` / :func:`member_predictions` /
  :func:`ensemble_variance` evaluate every ensemble member over a large
  point set in fixed-size chunks (a handful of matmuls per member per
  chunk), bounding peak memory while keeping the reduction over members
  bit-identical to the unchunked ``vstack(...).mean(axis=0)`` path.

The kernels compute *exactly* the same floating-point operations, in the
same order, as the per-batch/per-call paths they replace: with any
``batch_size`` (including 1, the paper's literal per-sample
presentation) the weight trajectory is bit-identical to the pre-kernel
implementation, which is what ``tests/test_kernels.py`` and
``tests/test_ensemble_kernel.py`` lock in.  For the stacked ensemble
kernel this relies on numpy evaluating an ``(m, a, b) @ (m, b, c)``
matmul as the same BLAS GEMM per 2-D slice it would run for one member
alone, and on row-sum reductions over the batch axis preserving the
2-D accumulation order — both asserted per-op by the tests.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import List, Optional, Sequence

import numpy as np

from .network import (
    SATURATION_THRESHOLD,
    FeedForwardNetwork,
    TrainingDiverged,
    WeightHealth,
)

#: rows per chunk for batched full-space prediction; large enough that
#: BLAS dominates, small enough that the (k, chunk) member block and the
#: per-layer activations stay cache- and memory-friendly
DEFAULT_PREDICT_CHUNK = 8192


class TrainingKernel:
    """Fused mini-batch SGD+momentum epochs over one network and dataset.

    Parameters
    ----------
    network:
        The network to train in place.  The kernel holds references to
        its weight and velocity arrays; in-place mutations made through
        :meth:`FeedForwardNetwork.set_weights` /
        :meth:`~FeedForwardNetwork.reset_momentum` (the early-stopping
        restore path) are therefore picked up automatically.
    x, y:
        Training inputs ``(n, F)`` and normalized targets ``(n, O)``.
        Validated once here instead of once per batch.
    """

    def __init__(
        self, network: FeedForwardNetwork, x: np.ndarray, y: np.ndarray
    ):
        x = np.asarray(x, dtype=np.float64)
        y = np.atleast_2d(np.asarray(y, dtype=np.float64))
        if x.ndim != 2:
            raise ValueError(f"x must be 2-D, got shape {x.shape}")
        if x.shape[1] != network.n_inputs:
            raise ValueError(
                f"expected {network.n_inputs} input features, got {x.shape[1]}"
            )
        if y.shape[1] != network.n_outputs:
            raise ValueError(
                f"expected {network.n_outputs} targets, got {y.shape[1]}"
            )
        if len(x) != len(y):
            raise ValueError("x and y must have the same number of rows")
        self.network = network
        self.x = x
        self.y = y
        # cache the hot attribute lookups out of the batch loop
        self._weights = network.weights
        self._velocity = network._velocity
        self._hidden_forward = network.hidden_activation.forward
        self._hidden_deriv = network.hidden_activation.derivative_from_output
        self._output_forward = network.output_activation.forward
        self._output_deriv = network.output_activation.derivative_from_output

    def weights_finite(self) -> bool:
        """Whether every weight matrix is free of NaN/inf (cheap: the
        weight arrays are tiny next to one batch of activations)."""
        return all(np.isfinite(w).all() for w in self._weights)

    def run_epoch(
        self,
        order: np.ndarray,
        batch_size: int,
        learning_rate: float,
        momentum: float,
    ) -> None:
        """One epoch: presentations ``order``, updates every ``batch_size``.

        Performs the identical arithmetic to calling
        :meth:`FeedForwardNetwork.train_batch` on each slice of
        ``order`` — batched forward matmuls, backward matmuls, then the
        Equation 3.2 momentum update per layer — with the validation and
        finite-guards hoisted out of the loop.  Raises
        :class:`~repro.core.network.TrainingDiverged` (reason
        ``"non-finite weights"``) when the epoch left any weight
        non-finite.
        """
        # one gather for the whole epoch instead of one per batch
        x_ep = self.x[order]
        y_ep = self.y[order]
        weights = self._weights
        velocity = self._velocity
        n_layers = len(weights)
        last = n_layers - 1
        hidden_forward = self._hidden_forward
        hidden_deriv = self._hidden_deriv
        output_forward = self._output_forward
        output_deriv = self._output_deriv
        n = len(order)

        for start in range(0, n, batch_size):
            stop = start + batch_size
            xb = x_ep[start:stop]
            yb = y_ep[start:stop]
            m = len(xb)

            # -- forward: batched matmul per layer ----------------------
            activations: List[np.ndarray] = [xb]
            a = xb
            for layer in range(n_layers):
                w = weights[layer]
                net = a @ w[1:] + w[0]
                a = (
                    output_forward(net) if layer == last
                    else hidden_forward(net)
                )
                activations.append(a)

            # -- backward + momentum update, output layer first ---------
            delta = (a - yb) * output_deriv(a)
            for layer in range(last, -1, -1):
                previous = activations[layer]
                w = weights[layer]
                v = velocity[layer]
                grad_bias = delta.sum(axis=0) / m
                grad = previous.T @ delta / m
                if layer > 0:
                    # propagate before updating: backprop must see the
                    # pre-update weights, exactly as the unfused path does
                    delta = (delta @ w[1:].T) * hidden_deriv(previous)
                v *= momentum
                v[0] -= learning_rate * grad_bias
                v[1:] -= learning_rate * grad
                w += v

        if not self.weights_finite():
            raise TrainingDiverged(
                "training epoch produced non-finite weights",
                reason="non-finite weights",
            )


class EnsembleTrainingKernel:
    """Fold-stacked SGD+momentum epochs over many same-shape networks.

    Keeps the parameters of ``m`` identically shaped member networks in
    three contiguous ``(m, P)`` buffers — weights, velocity and a
    gradient scratch, ``P`` parameters per member — together with each
    member's own training set.  Each layer is a ``(m, fan_in + 1,
    fan_out)`` view into those buffers (row 0 of the fan-in axis is the
    bias, as in :class:`FeedForwardNetwork`), so whole epochs run for
    every *active* member as batched matmuls: one ``(m, batch, fan_in)
    @ (m, fan_in, fan_out)`` forward GEMM stack per layer, the mirrored
    backward GEMMs, then one flat Equation 3.2 momentum update over the
    buffers with a per-member learning rate.

    Members are the unit of control, not the unit of work:

    * :meth:`deactivate` freezes a member's slice (early stop, or
      quarantine after restarts are exhausted) — it simply stops being
      gathered into the batched epoch, so its weights stay exactly
      where the caller left them;
    * :meth:`reinit_member` reseeds one slice from a freshly
      initialized network (the divergence-restart path) without
      touching any other member;
    * batched reads (:meth:`members_weight_health`,
      :meth:`predict_members`) serve every member due an
      early-stopping check in one pass; their per-member forms
      (:meth:`member_weight_health`, :meth:`predict_member`), reads
      (:meth:`get_member_weights`) and writes
      (:meth:`set_member_weights`, :meth:`reset_member_velocity`)
      mirror the corresponding :class:`FeedForwardNetwork` operations
      bit-for-bit, so the early-stopping bookkeeping built on top of
      them reproduces per-fold trajectories exactly.

    Every member must share one architecture and one training-set
    length; callers with ragged fold sizes (``n % k != 0``) group folds
    by size and run one kernel per group (see
    :class:`~repro.core.training.StackedEnsembleTrainer`).

    Bit-identity contract: for any schedule of epochs, activation
    changes, weight restores and reseeds, each member's weight and
    velocity trajectory is bit-identical to training that member alone
    through :class:`TrainingKernel` with the same presentation orders —
    ``tests/test_ensemble_kernel.py`` locks this per op and end-to-end
    through :class:`~repro.core.crossval.CrossValidationEnsemble`.
    """

    def __init__(
        self,
        networks: Sequence[FeedForwardNetwork],
        xs: Sequence[np.ndarray],
        ys: Sequence[np.ndarray],
    ):
        if not networks:
            raise ValueError("need at least one member network")
        first = networks[0]
        shapes = [w.shape for w in first.weights]
        for network in networks:
            if [w.shape for w in network.weights] != shapes:
                raise ValueError(
                    "all member networks must share one architecture"
                )
            if (
                network.hidden_activation.name
                != first.hidden_activation.name
                or network.output_activation.name
                != first.output_activation.name
            ):
                raise ValueError(
                    "all member networks must share one activation pair"
                )
        if len(xs) != len(networks) or len(ys) != len(networks):
            raise ValueError("need one (x, y) dataset per member")
        xs = [np.asarray(x, dtype=np.float64) for x in xs]
        ys = [np.atleast_2d(np.asarray(y, dtype=np.float64)) for y in ys]
        n = len(xs[0])
        for x, y in zip(xs, ys):
            # the same per-fit validation TrainingKernel does, per member
            if x.ndim != 2:
                raise ValueError(f"x must be 2-D, got shape {x.shape}")
            if x.shape[1] != first.n_inputs:
                raise ValueError(
                    f"expected {first.n_inputs} input features, "
                    f"got {x.shape[1]}"
                )
            if y.shape[1] != first.n_outputs:
                raise ValueError(
                    f"expected {first.n_outputs} targets, got {y.shape[1]}"
                )
            if len(x) != len(y):
                raise ValueError("x and y must have the same number of rows")
            if len(x) != n:
                raise ValueError(
                    "stacked members must share one training-set length; "
                    f"got {len(x)} and {n} (group ragged folds by size)"
                )
        self.networks: List[FeedForwardNetwork] = list(networks)
        self.n_members = len(networks)
        self.n_inputs = first.n_inputs
        self.n_outputs = first.n_outputs
        self.n_samples = n
        # (m, n, F) / (m, n, O): each member's own dataset, stacked
        self.x = np.stack(xs)
        self.y = np.stack(ys)
        # flat (m, P) parameter buffers; layer l occupies the columns
        # [start, stop) of every row, row-major (fan_in + 1, fan_out)
        self._layout = []
        start = 0
        for shape in shapes:
            stop = start + shape[0] * shape[1]
            self._layout.append((start, stop, shape))
            start = stop
        self.n_params = start
        self._w = np.stack(
            [
                np.concatenate([w.ravel() for w in network.weights])
                for network in networks
            ]
        )
        self._v = np.stack(
            [
                np.concatenate([v.ravel() for v in network._velocity])
                for network in networks
            ]
        )
        #: per-layer ``(m, fan_in + 1, fan_out)`` views of the buffers
        self.weights: List[np.ndarray] = self._layer_views(self._w)
        self.velocity: List[np.ndarray] = self._layer_views(self._v)
        self._active = np.ones(self.n_members, dtype=bool)
        self._hidden_forward = first.hidden_activation.forward
        self._hidden_deriv = first.hidden_activation.derivative_from_output
        self._output_forward = first.output_activation.forward
        self._output_deriv = first.output_activation.derivative_from_output
        # (x - y) * 1.0 == x - y exactly, so the identity head skips it
        self._identity_output = first.output_activation.name == "identity"
        # epoch workspaces keyed by active count, batch buffers keyed by
        # (active count, batch rows): allocated once per epoch shape
        self._workspaces = {}
        self._batch_buffers = {}

    def _layer_views(self, flat: np.ndarray) -> List[np.ndarray]:
        """Per-layer ``(rows, fan_in + 1, fan_out)`` views of a flat
        ``(rows, P)`` buffer (splitting the contiguous parameter axis
        never copies)."""
        return [
            flat[:, start:stop].reshape(len(flat), *shape)
            for start, stop, shape in self._layout
        ]

    # -- active-mask control -------------------------------------------
    @property
    def active_members(self) -> np.ndarray:
        """Indices of members the next epoch will train, ascending."""
        return np.flatnonzero(self._active)

    def deactivate(self, member: int) -> None:
        """Freeze ``member``: exclude its slice from batched epochs."""
        self._active[member] = False

    def activate(self, member: int) -> None:
        """Re-include ``member`` in batched epochs."""
        self._active[member] = True

    # -- per-member views and writes -----------------------------------
    def get_member_weights(self, member: int) -> List[np.ndarray]:
        """Deep copy of one member's weights (early-stopping snapshot);
        mirrors :meth:`FeedForwardNetwork.get_weights`."""
        return [w[member].copy() for w in self.weights]

    def set_member_weights(
        self, member: int, weights: Sequence[np.ndarray]
    ) -> None:
        """Restore one member's weights from :meth:`get_member_weights`;
        mirrors :meth:`FeedForwardNetwork.set_weights`."""
        if len(weights) != len(self.weights):
            raise ValueError(
                f"expected {len(self.weights)} weight matrices, "
                f"got {len(weights)}"
            )
        for own, new in zip(self.weights, weights):
            if own[member].shape != new.shape:
                raise ValueError(
                    f"weight shape mismatch: {own[member].shape} vs {new.shape}"
                )
            own[member] = new

    def reset_member_velocity(self, member: int) -> None:
        """Zero one member's momentum (used after weight restores);
        mirrors :meth:`FeedForwardNetwork.reset_momentum`."""
        self._v[member] = 0.0

    def reinit_member(
        self, member: int, network: FeedForwardNetwork
    ) -> None:
        """Reseed one slice from a freshly initialized ``network``.

        The divergence-restart path: only this member's weights,
        velocity and backing network are replaced; every other slice is
        untouched.  The member is reactivated.
        """
        if [w.shape for w in network.weights] != [
            w[member].shape for w in self.weights
        ]:
            raise ValueError(
                "replacement network does not match the stacked architecture"
            )
        self.networks[member] = network
        for layer, weight in enumerate(self.weights):
            weight[member] = network.weights[layer]
        self.reset_member_velocity(member)
        self._active[member] = True

    def sync_member(self, member: int) -> FeedForwardNetwork:
        """Copy one member's stacked slices back into its network object
        (weights and momentum) and return the network."""
        network = self.networks[member]
        for layer in range(len(self.weights)):
            network.weights[layer][...] = self.weights[layer][member]
            network._velocity[layer][...] = self.velocity[layer][member]
        return network

    # -- health and inference ------------------------------------------
    def member_weights_finite(self, member: int) -> bool:
        """Whether one member's weights are free of NaN/inf; mirrors
        :meth:`TrainingKernel.weights_finite`."""
        return bool(np.isfinite(self._w[member]).all())

    def members_finite(self) -> np.ndarray:
        """Weight finiteness for every member at once: one bool per
        member, equal to :meth:`member_weights_finite` element-wise but
        computed as one reduction over the flat buffer (the post-epoch
        guard runs every epoch, so this is on the hot path)."""
        return np.isfinite(self._w).all(axis=1)

    def members_weight_health(
        self, members: Sequence[int]
    ) -> List[WeightHealth]:
        """:class:`~repro.core.network.WeightHealth` of several members
        in one pass: one ``abs`` and saturation count over their flat
        rows and one max per layer, then the same fold as
        :meth:`FeedForwardNetwork.weight_health` — including Python's
        ``max``, which keeps the running maximum when a layer's maximum
        is NaN (``NaN > x`` is false), so a NaN layer flags
        ``finite=False`` without poisoning ``max_abs``."""
        magnitudes = np.abs(self._w[members])
        max_abs = np.zeros(len(magnitudes))
        finite = np.ones(len(magnitudes), dtype=bool)
        with np.errstate(invalid="ignore"):
            saturated = np.count_nonzero(
                magnitudes > SATURATION_THRESHOLD, axis=1
            )
            for start, stop, _ in self._layout:
                layer_max = magnitudes[:, start:stop].max(axis=1)
                finite &= np.isfinite(layer_max)
                max_abs = np.where(layer_max > max_abs, layer_max, max_abs)
        return [
            WeightHealth(
                finite=bool(ok),
                max_abs=float(largest),
                saturation=int(count) / self.n_params,
            )
            for ok, largest, count in zip(finite, max_abs, saturated)
        ]

    def member_weight_health(self, member: int) -> WeightHealth:
        """One member's :class:`~repro.core.network.WeightHealth`;
        the same arithmetic as :meth:`FeedForwardNetwork.weight_health`
        applied to the member's slices."""
        return self.members_weight_health([member])[0]

    def predict_members(
        self, members: Sequence[int], xs: np.ndarray
    ) -> np.ndarray:
        """Outputs of several members, each on its own inputs: ``xs`` is
        ``(k, n, F)`` pre-validated float64, the result ``(k, n,
        n_outputs)``.

        One stacked forward pass with the arithmetic of
        :meth:`FeedForwardNetwork.predict` per member; unlike it, no
        finite-guard is applied, so the caller can judge each member's
        slice on its own.
        """
        weights = self._layer_views(self._w[members])
        a = xs
        last = len(weights) - 1
        for layer, w in enumerate(weights):
            net = a @ w[:, 1:] + w[:, :1]
            a = (
                self._output_forward(net) if layer == last
                else self._hidden_forward(net)
            )
        return a

    def predict_member(self, member: int, x: np.ndarray) -> np.ndarray:
        """One member's outputs for ``x``; shape ``(n, n_outputs)``.

        Mirrors :meth:`FeedForwardNetwork.predict` bit-for-bit,
        including the validation and the non-finite output guard.
        """
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        if x.shape[1] != self.n_inputs:
            raise ValueError(
                f"expected {self.n_inputs} input features, got {x.shape[1]}"
            )
        a = self.predict_members([member], x[None])[0]
        if not np.isfinite(a).all():
            raise TrainingDiverged(
                "network output contains non-finite values",
                reason="non-finite output",
            )
        return a

    # -- the batched epoch ---------------------------------------------
    def _workspace(self, n_active: int) -> SimpleNamespace:
        """Flat buffers and per-layer views for an epoch over
        ``n_active`` members.  A full-active epoch updates the master
        buffers in place; a partial one trains gathered copies."""
        ws = self._workspaces.get(n_active)
        if ws is not None:
            return ws
        if n_active == self.n_members:
            w, v = self._w, self._v
        else:
            w = np.empty((n_active, self.n_params))
            v = np.empty((n_active, self.n_params))
        g = np.empty((n_active, self.n_params))
        weights = self._layer_views(w)
        grads = self._layer_views(g)
        ws = SimpleNamespace(
            w=w,
            v=v,
            g=g,
            w_lin=[layer[:, 1:] for layer in weights],
            w_bias=[layer[:, :1] for layer in weights],
            # backprop through W^T, or through the (k, 1, fan_in) row
            # of a 1-wide layer as a broadcast multiply: a K=1 GEMM is
            # one exact product per element either way
            w_back=[
                layer[:, 1:, 0][:, None, :] if layer.shape[2] == 1
                else layer[:, 1:].transpose(0, 2, 1)
                for layer in weights
            ],
            g_lin=[layer[:, 1:] for layer in grads],
            g_bias=[layer[:, 0] for layer in grads],
        )
        self._workspaces[n_active] = ws
        return ws

    def _buffers(self, n_active: int, rows: int) -> SimpleNamespace:
        """Per-batch pre-activation and delta buffers, one per layer:
        the leading ``n_active`` members of one all-member allocation
        per batch length.

        The hidden activation and its derivative still allocate their
        results: filling those through ``out=`` measured no faster."""
        key = (n_active, rows)
        buffers = self._batch_buffers.get(key)
        if buffers is None:
            full = self._batch_buffers.get((self.n_members, rows))
            if full is None:
                widths = [shape[1] for _, _, shape in self._layout]
                shape = (self.n_members, rows)
                full = SimpleNamespace(
                    net=[np.empty(shape + (w,)) for w in widths],
                    delta=[np.empty(shape + (w,)) for w in widths],
                )
                self._batch_buffers[(self.n_members, rows)] = full
            buffers = SimpleNamespace(
                net=[buffer[:n_active] for buffer in full.net],
                delta=[buffer[:n_active] for buffer in full.delta],
            )
            self._batch_buffers[key] = buffers
        return buffers

    def run_epoch(
        self,
        orders: np.ndarray,
        batch_size: int,
        learning_rates: np.ndarray,
        momentum: float,
    ) -> None:
        """One epoch for every active member, as stacked batched matmuls.

        Parameters
        ----------
        orders:
            ``(n_active, n_presentations)`` presentation indices — one
            row per active member, in ascending member order (the order
            of :attr:`active_members`).  Each row is that member's own
            weighted presentation draw.
        batch_size:
            Updates happen every ``batch_size`` presentations, exactly
            as in :meth:`TrainingKernel.run_epoch`.
        learning_rates:
            One step size per active member, same order as ``orders``
            (plateau decay is per member).
        momentum:
            Shared momentum coefficient.

        Unlike :meth:`TrainingKernel.run_epoch` this does not raise on
        non-finite weights: one member diverging must not abort its
        siblings' epoch.  Callers check :meth:`members_finite`
        afterwards and quarantine or reseed the failed slice — the same
        epoch-granularity detection the per-fold guard gave.
        """
        idx = self.active_members
        n_active = len(idx)
        if n_active == 0:
            raise ValueError("no active members to train")
        orders = np.asarray(orders)
        if orders.ndim != 2 or orders.shape[0] != n_active:
            raise ValueError(
                f"orders must have shape ({n_active}, n_presentations), "
                f"got {orders.shape}"
            )
        learning_rates = np.asarray(learning_rates, dtype=np.float64)
        if learning_rates.shape != (n_active,):
            raise ValueError(
                f"learning_rates must have shape ({n_active},), "
                f"got {learning_rates.shape}"
            )

        # one gather for the whole epoch, all members at once
        x_ep = self.x[idx[:, None], orders]
        y_ep = self.y[idx[:, None], orders]
        full = n_active == self.n_members
        ws = self._workspace(n_active)
        if not full:
            # partial epochs train gathered copies of the active rows
            # and scatter them back: one fancy index per buffer
            np.take(self._w, idx, axis=0, out=ws.w)
            np.take(self._v, idx, axis=0, out=ws.v)
        w_flat, v_flat, g_flat = ws.w, ws.v, ws.g
        w_lin, w_bias, w_back = ws.w_lin, ws.w_bias, ws.w_back
        g_lin, g_bias = ws.g_lin, ws.g_bias
        n_layers = len(w_lin)
        last = n_layers - 1
        hidden_forward = self._hidden_forward
        hidden_deriv = self._hidden_deriv
        output_forward = self._output_forward
        output_deriv = self._output_deriv
        identity_output = self._identity_output
        lr = learning_rates[:, None]
        n = orders.shape[1]

        for start in range(0, n, batch_size):
            stop = start + batch_size
            xb = x_ep[:, start:stop]
            yb = y_ep[:, start:stop]
            m = xb.shape[1]
            buffers = self._buffers(n_active, m)

            # -- forward: one stacked matmul per layer ------------------
            activations: List[np.ndarray] = [xb]
            a = xb
            for layer in range(n_layers):
                net = buffers.net[layer]
                np.matmul(a, w_lin[layer], out=net)
                net += w_bias[layer]
                a = (
                    output_forward(net) if layer == last
                    else hidden_forward(net)
                )
                activations.append(a)

            # -- backward into the gradient buffer, output layer first;
            # backprop reads only pre-update weights, so every layer's
            # update can wait for the flat step below
            delta = np.subtract(a, yb, out=buffers.delta[last])
            if not identity_output:
                delta *= output_deriv(a)
            for layer in range(last, -1, -1):
                previous = activations[layer]
                np.add.reduce(delta, axis=1, out=g_bias[layer])
                np.matmul(
                    previous.transpose(0, 2, 1), delta, out=g_lin[layer]
                )
                if layer > 0:
                    back = buffers.delta[layer - 1]
                    if delta.shape[2] == 1:
                        np.multiply(delta, w_back[layer], out=back)
                    else:
                        np.matmul(delta, w_back[layer], out=back)
                    back *= hidden_deriv(previous)
                    delta = back

            # -- Equation 3.2 momentum update, all layers at once ------
            g_flat /= m
            g_flat *= lr
            v_flat *= momentum
            v_flat -= g_flat
            w_flat += v_flat

        if not full:
            self._w[idx] = w_flat
            self._v[idx] = v_flat


# ----------------------------------------------------------------------
# batched inference
# ----------------------------------------------------------------------
def forward_raw(network: FeedForwardNetwork, x: np.ndarray) -> np.ndarray:
    """Network outputs for a pre-validated float64 matrix ``x``.

    The arithmetic of :meth:`FeedForwardNetwork.forward` without the
    per-call conversion, shape checks and finite-guard; callers are
    expected to validate once per point set, not once per chunk.
    """
    a = x
    weights = network.weights
    last = len(weights) - 1
    hidden = network.hidden_activation
    output = network.output_activation
    for layer, w in enumerate(weights):
        net = a @ w[1:] + w[0]
        a = output.forward(net) if layer == last else hidden.forward(net)
    return a


def _chunk_bounds(n: int, chunk_size: Optional[int]):
    if chunk_size is None or chunk_size <= 0 or chunk_size >= n:
        yield 0, n
        return
    for start in range(0, n, chunk_size):
        yield start, min(start + chunk_size, n)


def _member_block(
    networks: Sequence[FeedForwardNetwork],
    scalers: Sequence,
    x: np.ndarray,
    column: Optional[int] = 0,
) -> np.ndarray:
    """Denormalized predictions of every member on one chunk: ``(k, c)``
    for one output ``column``, ``(k, c, n_outputs)`` for ``None``."""
    outputs = [
        scaler.inverse_transform(forward_raw(network, x))
        for network, scaler in zip(networks, scalers)
    ]
    block = np.stack(
        outputs if column is None else [out[:, column] for out in outputs]
    )
    if not np.isfinite(block).all():
        raise TrainingDiverged(
            "network output contains non-finite values",
            reason="non-finite output",
        )
    return block


def _validated(
    networks: Sequence[FeedForwardNetwork], x: np.ndarray
) -> np.ndarray:
    if not networks:
        raise ValueError("need at least one network")
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    n_inputs = networks[0].n_inputs
    if x.shape[1] != n_inputs:
        raise ValueError(
            f"expected {n_inputs} input features, got {x.shape[1]}"
        )
    return x


def member_predictions(
    networks: Sequence[FeedForwardNetwork],
    scalers: Sequence,
    x: np.ndarray,
    chunk_size: Optional[int] = DEFAULT_PREDICT_CHUNK,
) -> np.ndarray:
    """Denormalized primary-output predictions of every member; shape
    ``(k, n)``.  ``scalers`` holds one target scaler per member.

    Evaluates ``chunk_size`` points at a time so the peak working set is
    ``O(k * chunk)`` regardless of ``n``; the result is identical to the
    unchunked computation (chunking splits the point axis only).
    """
    x = _validated(networks, x)
    return np.concatenate(
        [
            _member_block(networks, scalers, x[start:stop])
            for start, stop in _chunk_bounds(len(x), chunk_size)
        ],
        axis=1,
    )


def ensemble_predict(
    networks: Sequence[FeedForwardNetwork],
    scalers: Sequence,
    x: np.ndarray,
    chunk_size: Optional[int] = DEFAULT_PREDICT_CHUNK,
    column: Optional[int] = 0,
) -> np.ndarray:
    """Mean of the members' denormalized predictions: shape ``(n,)`` for
    one output ``column``, ``(n, n_outputs)`` for ``column=None``.

    The member reduction is per point, so computing it chunk by chunk is
    bit-identical to ``member_predictions(...).mean(axis=0)`` while only
    ever materializing one ``(k, chunk)`` block.
    """
    x = _validated(networks, x)
    return np.concatenate(
        [
            _member_block(networks, scalers, x[start:stop], column).mean(
                axis=0
            )
            for start, stop in _chunk_bounds(len(x), chunk_size)
        ]
    )


def ensemble_variance(
    networks: Sequence[FeedForwardNetwork],
    scalers: Sequence,
    x: np.ndarray,
    chunk_size: Optional[int] = DEFAULT_PREDICT_CHUNK,
) -> np.ndarray:
    """Population variance of member primary-output predictions per
    point; shape ``(n,)``."""
    x = _validated(networks, x)
    return np.concatenate(
        [
            _member_block(networks, scalers, x[start:stop]).var(
                axis=0, ddof=0
            )
            for start, stop in _chunk_bounds(len(x), chunk_size)
        ]
    )
