"""Collection layer: sample each data window once, train each model once.

Historically every analysis owned a private
:class:`~repro.core.collector.DataCollector`, so N analyses declared
over the same data window paid N provider sweeps per matching iteration
— a nine-threshold Table IV sweep sampled the same velocity field nine
times.  :class:`SharedCollector` removes that multiplier: analyses
whose collectors agree on ``(provider, spatial, temporal)`` are grouped
onto one :class:`~repro.core.collector.SeriesStore`, the first
collector dispatched in an iteration samples the simulation, and every
later one reuses the stored row.

Training is deduplicated the same way.  Within a collection group,
analyses whose update streams are certain to be equal share one
:class:`~repro.core.minibatch.MiniBatchTrainer` and its
:class:`~repro.core.ar_model.ARModel`.  The grouping key is

* the collection group key above;
* the collector's emission config: ``axis``, ``include_self``, ``lag``
  and ``order``;
* the trainer's ``batch.capacity`` and ``drain_partial``;
* the model's ``lag``, ``learning_rate``, ``epochs_per_batch``, ``l2``,
  ``clip``, ``max_coefficient_sum`` and ``seed`` (its initial weights).

The first subscriber dispatched in an iteration trains; the others
receive that iteration's losses, so each still feeds its own early-stop
monitor (see :class:`~repro.core.collector.TrainingRecord`).  Only
:class:`~repro.core.curve_fitting.CurveFitting` analyses whose
collector, trainer and model are exactly a ``DataCollector``, a
``MiniBatchTrainer`` and an ``ARModel`` share; subclasses of those
three and custom analyses keep their own trainers.
Only a trainer that has seen no samples accepts a new subscriber, so an
analysis attached after training started gets a fresh trainer.

Sharing rebinds ``analysis.trainer`` and ``analysis.model`` (and the
collector's ``trainer``) at attach: read them through the analysis
after attaching, not from a reference taken before.  They are rebound
once more under **copy-on-freeze**: when the scheduler marks an
analysis stopped while other subscribers of its trainer are still
active, :meth:`SharedCollector.freeze` gives it a private copy of the
trainer and model as they stand.  Each analysis therefore ends with
the state an independent run stopping at the same iteration would
have, bit for bit, and ``policy="all"`` sweeps freeze every analysis
at its own stop point.

Grouping is by provider *identity*: two textually identical lambdas are
distinct providers and will not share.  Pass the same callable object
to every analysis that should read through one sweep (see
``repro.engine.workload.replay_provider`` for the replay case).
Wrappers carrying ``__wrapped__`` (``providers.checked``,
``providers.batched``) are unwrapped before grouping, so a checked and
a bare view of one provider still share a sweep.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.ar_model import ARModel
from repro.core.collector import DataCollector, SeriesStore
from repro.core.curve_fitting import CurveFitting
from repro.core.minibatch import MiniBatchTrainer
from repro.core.params import IterParam
from repro.core.providers import provider_key


def _window_key(param: IterParam) -> Tuple[int, int, int]:
    return (param.begin, param.end, param.step)


def _trainer_key(analysis) -> Optional[tuple]:
    """What fixes ``analysis``'s update stream, or None: train alone."""
    if not isinstance(analysis, CurveFitting):
        return None
    collector = analysis.collector
    trainer = collector.trainer
    model = trainer.model
    if (
        type(collector) is not DataCollector
        or type(trainer) is not MiniBatchTrainer
        or type(model) is not ARModel
        or analysis.trainer is not trainer
        or analysis.model is not model
        or trainer.samples_seen
        or model.is_trained
    ):
        return None
    return (
        collector.axis,
        collector.include_self,
        collector.lag,
        collector.order,
        trainer.batch.capacity,
        trainer.drain_partial,
        model.lag,
        model.learning_rate,
        model.epochs_per_batch,
        model.l2,
        model.clip,
        model.max_coefficient_sum,
        model.seed,
    )


@dataclass
class _TrainerShare:
    """One trainer plus the analyses still training through it."""

    trainer: MiniBatchTrainer
    analyses: List = field(default_factory=list)


@dataclass
class CollectionGroup:
    """One shared sampling unit: a store plus its subscribed collectors.

    The distributed runtime shards groups, not collectors: every
    subscriber of a group reads the same ``(provider, spatial,
    temporal)`` window, so the group is the unit whose locations are
    block-decomposed over ranks and whose rows are reduced back.  The
    convenience accessors below expose the shared window facts the
    shard planner needs; they all delegate to the first subscriber,
    which is also the collector a serial dispatch would have sampled
    through.
    """

    store: SeriesStore
    collectors: List[DataCollector] = field(default_factory=list)

    @property
    def n_subscribers(self) -> int:
        return len(self.collectors)

    @property
    def provider(self):
        """The provider the group samples through (first subscriber's)."""
        return self.collectors[0].provider

    @property
    def temporal(self) -> IterParam:
        """The temporal window shared by every subscriber."""
        return self.collectors[0].temporal

    @property
    def locations(self):
        """Location ids of the shared spatial window (int64 array)."""
        return self.store.locations


class SharedCollector:
    """Registry deduplicating data collection and training across analyses.

    ``subscribe`` inspects an analysis's collector and either starts a
    new group around its store or rebinds it onto an existing group's
    store, then does the same for its trainer (see the module
    docstring for the key).  Analyses without a collector attribute
    (custom :class:`~repro.core.curve_fitting.Analysis` subclasses that
    manage their own data) are left untouched.
    """

    def __init__(self) -> None:
        self._groups: Dict[tuple, CollectionGroup] = {}
        self._trainers: List[_TrainerShare] = []
        # Trainers that may still take subscribers, by full grouping key.
        self._open: Dict[tuple, _TrainerShare] = {}
        # The share each subscribed collector trains through, by id.
        self._share_of: Dict[int, _TrainerShare] = {}

    def subscribe(self, analysis) -> bool:
        """Register an analysis for shared collection and training.

        Returns True when the analysis now reads through a shared
        group, False when it does not participate (no collector).
        """
        collector = getattr(analysis, "collector", None)
        if not isinstance(collector, DataCollector):
            return False
        key = (
            provider_key(collector.provider),
            _window_key(collector.spatial),
            _window_key(collector.temporal),
        )
        group = self._groups.get(key)
        if group is None:
            self._groups[key] = CollectionGroup(
                store=collector.store, collectors=[collector]
            )
        else:
            collector.rebind_store(group.store)
            group.collectors.append(collector)
        self._subscribe_trainer(analysis, key)
        return True

    def _subscribe_trainer(self, analysis, group_key: tuple) -> None:
        trainer_key = _trainer_key(analysis)
        full_key = None if trainer_key is None else (group_key, trainer_key)
        share = None if full_key is None else self._open.get(full_key)
        collector = analysis.collector
        # A trainer that has trained already would hand a late joiner
        # updates it never saw; it gets a fresh trainer instead.
        joinable = share is not None and share.analyses
        if joinable and not share.trainer.samples_seen:
            collector.share_trainer(share.analyses[0].collector)
            analysis.trainer = share.trainer
            analysis.model = share.trainer.model
        else:
            share = _TrainerShare(collector.trainer)
            self._trainers.append(share)
            if full_key is not None:
                self._open[full_key] = share
        share.analyses.append(analysis)
        self._share_of[id(collector)] = share

    def freeze(self, analysis) -> None:
        """Copy-on-freeze: keep ``analysis``'s training state as it stands.

        Called by the scheduler when it marks ``analysis`` stopped.  If
        other subscribers still train through the same trainer, the
        stopped analysis gets a private copy of the trainer and model;
        a trainer nobody else uses stays where it is.
        """
        collector = getattr(analysis, "collector", None)
        share = self._share_of.pop(id(collector), None)
        if share is None:
            return
        share.analyses.remove(analysis)
        if share.analyses:
            trainer = copy.deepcopy(share.trainer)
            collector.own_trainer(trainer)
            analysis.trainer = trainer
            analysis.model = trainer.model

    @property
    def groups(self) -> List[CollectionGroup]:
        return list(self._groups.values())

    @property
    def n_groups(self) -> int:
        return len(self._groups)

    @property
    def n_collectors(self) -> int:
        return sum(group.n_subscribers for group in self._groups.values())

    @property
    def n_trainers(self) -> int:
        """Distinct trainers the subscribed analyses train through."""
        return len(self._trainers)

    @property
    def shared_sweeps_saved(self) -> int:
        """Provider sweeps avoided per matching iteration by sharing."""
        return self.n_collectors - self.n_groups

    @property
    def shared_trainings_saved(self) -> int:
        """Training passes avoided per matching iteration by sharing."""
        return self.n_collectors - self.n_trainers
