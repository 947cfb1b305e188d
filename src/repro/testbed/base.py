"""Shared machinery for the emulated WiFi/LTE testbeds.

A measurement has a noise-free half and a noisy half. The *plan*
(:func:`_plan`) offers the flows at their class demand, shares the cell,
shapes each flow's QoS and bins its SNR; it depends only on the matrix
and the testbed's state, so :class:`EmulatedTestbed` keeps one per
matrix. The *measurement* (:func:`_measure`) draws every flow's noise
factor ``f = max(1 + N(0, qos_noise), 0.2)`` in one call and decides
each flow's acceptability.

That decision is weakly monotone in ``f``: throughput scales by ``f``,
delay by ``1/f`` (floored at 1e-4), loss is fixed, and every app model
and class threshold is monotone in throughput and delay. So a plan also
keeps, per flow, a bracket ``(lo, hi)`` on ``f``: the largest factor
scored unacceptable and the smallest scored acceptable. A draw with
``f >= hi`` is acceptable and one with ``f <= lo`` is not, unscored; only
a draw strictly inside the bracket is scored with the app model and the
class threshold, and its verdict tightens the bracket. A run's full
records (noisy QoS and QoE) are built only when they are read.
"""

from __future__ import annotations

import abc
import math
from array import array
from functools import partial
from itertools import chain
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.apps.base import app_model_for_class
from repro.netem.shaping import Shaper
from repro.qoe.thresholds import threshold_for_class
from repro.testbed.controller import FlowRecord, MatrixRun
from repro.testbed.devices import MobileDevice
from repro.traffic.flows import APP_CLASSES, DEFAULT_PROFILES
from repro.wireless.channel import SnrBinner
from repro.wireless.fluid import OfferedFlow
from repro.wireless.qos import FlowQoS

__all__ = ["EmulatedTestbed", "measure_flows"]

#: App model and QoE threshold per class. Both are stateless, so one pair
#: per class serves every measurement.
_APP_MODELS = {
    cls: (app_model_for_class(cls), threshold_for_class(cls)) for cls in APP_CLASSES
}

#: Most noise-free plans one testbed keeps; past it the oldest goes. A
#: seeded closed-loop episode measures a few hundred distinct matrices.
_PLAN_MEMO_CAP = 1024

Spec = Tuple[str, float]
Allocator = Callable[[Sequence[OfferedFlow], Sequence[OfferedFlow]], Dict[int, FlowQoS]]
#: A matrix's plan, packed as doubles, :data:`_STRIDE` per flow in flow
#: order: SNR level, shaped throughput, delay and loss, then the bracket
#: ``lo``, ``hi`` on the noise factor (``-inf``, ``inf`` until scored).
#: Only the bracket ever changes.
Plan = array
_STRIDE = 6


def _offered(flow_specs: Sequence[Spec], start_id: int = 0) -> List[OfferedFlow]:
    return [
        OfferedFlow(
            flow_id=start_id + i,
            app_class=app_class,
            demand_bps=DEFAULT_PROFILES[app_class].demand_bps,
            snr_db=snr_db,
            elastic=DEFAULT_PROFILES[app_class].elastic,
        )
        for i, (app_class, snr_db) in enumerate(flow_specs)
    ]


def _plan(
    flow_specs: Sequence[Spec],
    allocate: Allocator,
    binner: SnrBinner,
    shaper: Optional[Shaper],
    background_specs: Sequence[Spec],
) -> Plan:
    """The noise-free half of a measurement: offer the flows, share the
    cell, shape each flow's QoS and bin its SNR."""
    offered = _offered(flow_specs)
    background = _offered(background_specs, start_id=len(offered))
    allocation = allocate(offered, background)
    values = array("d")
    for flow in offered + background:
        qos = allocation[flow.flow_id]
        if shaper is not None:
            qos = shaper.apply_to_qos(qos)
        level = binner.level_index(flow.snr_db)
        values.extend(
            (level, qos.throughput_bps, qos.delay_s, qos.loss_rate, -math.inf, math.inf)
        )
    return values


def _flow_qos(plan: Plan, at: int, factor: Optional[float]) -> FlowQoS:
    """The QoS of the flow at offset ``at`` of ``plan``, scaled by its
    noise ``factor`` (none without measurement noise)."""
    throughput, delay = plan[at + 1], plan[at + 2]
    if factor is not None:
        throughput *= factor
        delay = max(delay / factor, 1e-4)
    return FlowQoS(throughput_bps=throughput, delay_s=delay, loss_rate=plan[at + 3])


def _is_acceptable(app_class: str, qos: FlowQoS) -> bool:
    app_model, threshold = _APP_MODELS[app_class]
    return threshold.is_acceptable(app_model.measure_qoe(qos))


def _measure(
    plan: Plan,
    flow_specs: Sequence[Spec],
    background_specs: Sequence[Spec],
    rng: Optional[np.random.Generator],
    qos_noise: float,
) -> MatrixRun:
    """The noisy half: draw every flow's noise factor in one call (the
    same values, and the same later stream, as one scalar draw per flow),
    then decide each flow's acceptability against its bracket, scoring
    only a draw inside it. Without noise every flow is scored and no
    bracket moves."""
    specs = (*flow_specs, *background_specs)
    factors: Optional[List[float]] = None
    if rng is not None and qos_noise > 0 and specs:
        draws = rng.normal(0.0, qos_noise, size=len(specs)).tolist()
        factors = [max(1.0 + draw, 0.2) for draw in draws]
    acceptable: List[bool] = []
    for i, (app_class, _) in enumerate(specs):
        at = _STRIDE * i
        if factors is None:
            acceptable.append(_is_acceptable(app_class, _flow_qos(plan, at, None)))
            continue
        factor = factors[i]
        if factor >= plan[at + 5]:
            acceptable.append(True)
        elif factor <= plan[at + 4]:
            acceptable.append(False)
        else:
            ok = _is_acceptable(app_class, _flow_qos(plan, at, factor))
            plan[at + 5 if ok else at + 4] = factor
            acceptable.append(ok)
    n_offered = len(flow_specs)
    flags = tuple(acceptable)
    # Tuples from lists, sized once: a tuple built from a generator is
    # allocated at 10 and shrunk, which raised the closed loop's peak RSS
    # by ~2%.
    return MatrixRun.measured(
        acceptable=flags,
        app_classes=tuple([app_class for app_class, _ in specs]),
        snr_levels=tuple([int(level) for level in plan[::_STRIDE]]),
        background=(False,) * n_offered + (True,) * (len(specs) - n_offered),
        build=partial(_records, plan, specs, n_offered, factors, flags),
    )


def _records(
    plan: Plan,
    specs: Sequence[Spec],
    n_offered: int,
    factors: Optional[List[float]],
    acceptable: Tuple[bool, ...],
) -> Tuple[FlowRecord, ...]:
    """A measured run's full records: each flow's noisy QoS and QoE, with
    the acceptability its measurement decided. A plan's bracket may have
    moved since; the QoS fields it reads never do."""
    records: List[FlowRecord] = []
    for i, (app_class, snr_db) in enumerate(specs):
        at = _STRIDE * i
        qos = _flow_qos(plan, at, None if factors is None else factors[i])
        records.append(
            FlowRecord(
                flow_id=i,
                app_class=app_class,
                snr_db=snr_db,
                snr_level=int(plan[at]),
                qos=qos,
                qoe=_APP_MODELS[app_class][0].measure_qoe(qos),
                acceptable=acceptable[i],
                background=i >= n_offered,
            )
        )
    return tuple(records)


def measure_flows(
    flow_specs: Sequence[Spec],
    allocate: Allocator,
    binner: SnrBinner,
    rng: Optional[np.random.Generator] = None,
    qos_noise: float = 0.0,
    shaper: Optional[Shaper] = None,
    background_specs: Sequence[Spec] = (),
) -> MatrixRun:
    """Measure one traffic matrix on a cell.

    ``flow_specs`` is a list of ``(app_class, snr_db)`` pairs, one per
    simultaneously active flow, offered at its class's default demand;
    ``allocate(offered, background)`` is the cell's capacity-sharing
    model. Each flow's QoS goes through ``shaper`` (if any), then a
    multiplicative measurement noise ``max(1 + N(0, qos_noise), 0.2)``
    drawn from ``rng`` (skipped without ``rng`` or at zero noise), then
    its app model's QoE and the class threshold. Background flows are
    measured but flagged ``background``.
    """
    plan = _plan(flow_specs, allocate, binner, shaper, background_specs)
    return _measure(plan, flow_specs, background_specs, rng, qos_noise)


class EmulatedTestbed(abc.ABC):
    """Base class: turn (class, SNR) flow specs into a measured MatrixRun.

    Subclasses provide the radio cell (:meth:`_allocate`, with the
    parameters it reads in :meth:`_cell_params`) and device population;
    :func:`measure_flows` handles demand profiles, netem shaping,
    measurement noise, app-model QoE and labelling.

    The noise-free half of a measurement is a pure function of the
    ordered flow specs, the background specs, the shaper, the cell
    parameters and the binner, so :meth:`run_flows` keeps it per matrix
    and only draws the noise again; the plan's brackets, tightened by
    every call, decide most flows of a repeated matrix unscored.
    """

    def __init__(
        self,
        n_devices: int,
        high_snr_db: float,
        binner: Optional[SnrBinner] = None,
        shaper: Optional[Shaper] = None,
        qos_noise: float = 0.03,
    ) -> None:
        if n_devices < 1:
            raise ValueError("need at least one device")
        self.devices = [
            MobileDevice(device_id=i, snr_db=high_snr_db) for i in range(n_devices)
        ]
        self.binner = binner or SnrBinner.single_level()
        self.shaper = shaper or Shaper()
        self.qos_noise = float(qos_noise)
        self._plans: Dict[Tuple[object, ...], Plan] = {}
        self._plan_context: Optional[Tuple[object, ...]] = None

    # -- radio model -----------------------------------------------------
    @abc.abstractmethod
    def _allocate(
        self,
        offered: Sequence[OfferedFlow],
        background: Sequence[OfferedFlow] = (),
    ) -> Dict[int, FlowQoS]:
        """Run the cell's capacity-sharing model."""

    @abc.abstractmethod
    def _cell_params(self) -> Tuple[Optional[float], ...]:
        """The cell parameters :meth:`_allocate` reads besides the shaper."""

    @property
    def max_clients(self) -> int:
        return len(self.devices)

    # -- shaping ---------------------------------------------------------
    def set_shaper(self, shaper: Shaper) -> None:
        """Apply a tc/netem profile to the whole testbed (Figure 11)."""
        self.shaper = shaper

    def clear_shaper(self) -> None:
        self.shaper = Shaper()

    # -- measurement -----------------------------------------------------
    def run_flows(
        self,
        flow_specs: Sequence[Spec],
        rng: Optional[np.random.Generator] = None,
        background_specs: Sequence[Spec] = (),
    ) -> MatrixRun:
        """Measure one traffic matrix.

        ``flow_specs`` is a list of ``(app_class, snr_db)`` pairs, one per
        simultaneously active flow; ``background_specs`` are flows demoted
        to the 802.11e-style low-priority category (measured, but outside
        the QoE promise and the network-wide label). Returns per-flow QoS,
        client-side ground-truth QoE and thresholded acceptability.
        """
        if len(flow_specs) > self.max_clients:
            raise ValueError(
                f"{len(flow_specs)} flows exceed the testbed's "
                f"{self.max_clients} clients"
            )
        # A plan is valid for one shaper, cell and binner; a change of
        # any of them starts the memo afresh.
        context = (self.shaper, self._cell_params(), self.binner.boundaries_db)
        if context != self._plan_context:
            self._plans = {}
            self._plan_context = context
        # Flat, so that a plan's key holds no tuple per flow.
        key = (
            len(flow_specs),
            *chain.from_iterable(flow_specs),
            *chain.from_iterable(background_specs),
        )
        plan = self._plans.get(key)
        if plan is None:
            plan = _plan(
                flow_specs, self._allocate, self.binner, self.shaper, background_specs
            )
            if len(self._plans) >= _PLAN_MEMO_CAP:
                del self._plans[next(iter(self._plans))]
            self._plans[key] = plan
        return _measure(plan, flow_specs, background_specs, rng, self.qos_noise)
