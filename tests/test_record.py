"""Record types: the methods ``adux._record.record`` builds.

Each record class must behave as the ``@dataclass`` it replaced: the same
``repr`` text, field-only ``==`` and ``hash``, frozen fields, a
``TypeError`` for a bad call and ``__post_init__`` run on every
construction. The expected ``repr`` strings were printed by the
``dataclasses`` versions of these classes.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import adux
from adux._record import FrozenInstanceError, record, replace
from adux.bayes import (
    BetaParams,
    BucsResult,
    CredibleInterval,
    IntervalKind,
    TrialSummary,
)
from adux.drift import TdcFit, UsabilitySeries
from adux.entropy import EntropyBits, GroupedEntropy
from adux.model import (
    Dataset,
    DiscreteDistribution,
    Rejection,
    ResponseSpace,
    SessionCounts,
    SessionObservation,
    ValidationResult,
)
from adux.report import AduxReport, CategoryResult, EvalConfig, Fig3Spec, ReportMeta
from adux.synth import GeneratorSpec


def _records() -> dict[str, object]:
    """One instance of every record class, by class name."""
    space = ResponseSpace(1, 3)
    dist = DiscreteDistribution(space, (0.25, 0.5, 0.25))
    obs = SessionObservation("s1", "chat", 0, 2, True)
    bits = EntropyBits(1.5, 0.9463946303571863, 4)
    series = UsabilitySeries(((0, 2.5), (1, 3.0)))
    interval = CredibleInterval(0.25, 0.75, 0.95, IntervalKind.HDI)
    post = BetaParams(2.0, 3.5)
    trials = TrialSummary(1, 3)
    counts = SessionCounts(space)
    counts.add("s1", "chat", 0, 2, True)
    meta = ReportMeta(6, 0, "0123456789ab", "pooled", BetaParams(1.0, 1.0), 0.95, "9.9",
                      "2024-03-01T00:00:00Z")
    category = CategoryResult(
        "chat", bits, series, None, "insufficient-periods",
        BucsResult(post, interval, 0.36363636363636365, 0.3333333333333333), None, trials,
    )
    return {
        "ResponseSpace": space,
        "DiscreteDistribution": dist,
        "SessionObservation": obs,
        "SessionCounts": counts,
        "Dataset": Dataset(space, (obs,)),
        "Rejection": Rejection(3, "unknown-rating",
                               "rating code 9 not in response space (1, 2, 3)"),
        "ValidationResult": ValidationResult(Dataset(space, ())),
        "EntropyBits": bits,
        "GroupedEntropy": GroupedEntropy((("chat", bits), (("chat", 1), EntropyBits(0.0)))),
        "UsabilitySeries": series,
        "TdcFit": TdcFit(3.0, 0.05, 0.01, (0.03, 0.07), 0.2, 0.5, 5),
        "BetaParams": post,
        "TrialSummary": trials,
        "CredibleInterval": interval,
        "BucsResult": BucsResult(post, interval, 0.36363636363636365, None),
        "GeneratorSpec": GeneratorSpec("chat", dist, 3.0, 0.0, 0.0, 0.5, 2, 10, 7),
        "EvalConfig": EvalConfig(),
        "CategoryResult": category,
        "ReportMeta": meta,
        "AduxReport": AduxReport(space, (category,), meta),
        "Fig3Spec": Fig3Spec(0.7, (10, 100)),
    }


DATACLASS_REPRS = {
    'ResponseSpace': (
        'ResponseSpace(min_code=1, max_code=3)'
    ),
    'DiscreteDistribution': (
        'DiscreteDistribution(space=ResponseSpace(min_code=1, max_code=3), '
        'probs=(0.25, 0.5, 0.25), n_obs=None)'
    ),
    'SessionObservation': (
        "SessionObservation(session_id='s1', category='chat', period=0, rating=2, "
        'task_completed=True)'
    ),
    'SessionCounts': (
        'SessionCounts(space=ResponseSpace(min_code=1, max_code=3), '
        "per_session=False, rows=1, levels={('chat', 0): [0, 1, 0]}, "
        "trials={'chat': [1, 1]}, sessions={})"
    ),
    'Dataset': (
        'Dataset(space=ResponseSpace(min_code=1, max_code=3), '
        "observations=(SessionObservation(session_id='s1', category='chat', "
        'period=0, rating=2, task_completed=True),))'
    ),
    'Rejection': (
        "Rejection(row=3, reason='unknown-rating', "
        "detail='rating code 9 not in response space (1, 2, 3)')"
    ),
    'ValidationResult': (
        'ValidationResult(dataset=Dataset(space=ResponseSpace(min_code=1, '
        'max_code=3), observations=()), rejections=())'
    ),
    'EntropyBits': (
        'EntropyBits(value=1.5, normalized=0.9463946303571863, n_ratings=4)'
    ),
    'GroupedEntropy': (
        "GroupedEntropy(results=(('chat', EntropyBits(value=1.5, "
        "normalized=0.9463946303571863, n_ratings=4)), (('chat', 1), "
        'EntropyBits(value=0.0, normalized=None, n_ratings=None))))'
    ),
    'UsabilitySeries': (
        'UsabilitySeries(points=((0, 2.5), (1, 3.0)))'
    ),
    'TdcFit': (
        'TdcFit(beta0=3.0, beta1=0.05, stderr_beta1=0.01, ci95_beta1=(0.03, 0.07), '
        'residual_sd=0.2, r_squared=0.5, n_points=5)'
    ),
    'BetaParams': (
        'BetaParams(alpha=2.0, beta=3.5)'
    ),
    'TrialSummary': (
        'TrialSummary(completions=1, trials=3)'
    ),
    'CredibleInterval': (
        'CredibleInterval(lower=0.25, upper=0.75, mass=0.95, '
        "kind=<IntervalKind.HDI: 'hdi'>, unique=True)"
    ),
    'BucsResult': (
        'BucsResult(posterior=BetaParams(alpha=2.0, beta=3.5), '
        'interval=CredibleInterval(lower=0.25, upper=0.75, mass=0.95, '
        "kind=<IntervalKind.HDI: 'hdi'>, unique=True), mean=0.36363636363636365, "
        'mode=None)'
    ),
    'GeneratorSpec': (
        "GeneratorSpec(category='chat', "
        'true_distribution=DiscreteDistribution(space=ResponseSpace(min_code=1, '
        'max_code=3), probs=(0.25, 0.5, 0.25), n_obs=None), true_beta0=3.0, '
        'true_beta1=0.0, noise_sd=0.0, completion_p=0.5, periods=2, '
        'sessions_per_period=10, seed=7)'
    ),
    'EvalConfig': (
        'EvalConfig(prior=BetaParams(alpha=1.0, beta=1.0), mass=0.95, '
        "aggregation='pooled')"
    ),
    'CategoryResult': (
        "CategoryResult(name='chat', iei=EntropyBits(value=1.5, "
        'normalized=0.9463946303571863, n_ratings=4), '
        'series=UsabilitySeries(points=((0, 2.5), (1, 3.0))), tdc=None, '
        "tdc_reason='insufficient-periods', "
        'bucs=BucsResult(posterior=BetaParams(alpha=2.0, beta=3.5), '
        'interval=CredibleInterval(lower=0.25, upper=0.75, mass=0.95, '
        "kind=<IntervalKind.HDI: 'hdi'>, unique=True), mean=0.36363636363636365, "
        'mode=0.3333333333333333), bucs_reason=None, '
        'trials=TrialSummary(completions=1, trials=3))'
    ),
    'ReportMeta': (
        "ReportMeta(rows=6, rejected=0, config_digest='0123456789ab', "
        "aggregation='pooled', prior=BetaParams(alpha=1.0, beta=1.0), mass=0.95, "
        "version='9.9', generated_at='2024-03-01T00:00:00Z')"
    ),
    'AduxReport': (
        'AduxReport(scale=ResponseSpace(min_code=1, max_code=3), '
        "categories=(CategoryResult(name='chat', iei=EntropyBits(value=1.5, "
        'normalized=0.9463946303571863, n_ratings=4), '
        'series=UsabilitySeries(points=((0, 2.5), (1, 3.0))), tdc=None, '
        "tdc_reason='insufficient-periods', "
        'bucs=BucsResult(posterior=BetaParams(alpha=2.0, beta=3.5), '
        'interval=CredibleInterval(lower=0.25, upper=0.75, mass=0.95, '
        "kind=<IntervalKind.HDI: 'hdi'>, unique=True), mean=0.36363636363636365, "
        'mode=0.3333333333333333), bucs_reason=None, '
        'trials=TrialSummary(completions=1, trials=3)),), meta=ReportMeta(rows=6, '
        "rejected=0, config_digest='0123456789ab', aggregation='pooled', "
        "prior=BetaParams(alpha=1.0, beta=1.0), mass=0.95, version='9.9', "
        "generated_at='2024-03-01T00:00:00Z'))"
    ),
    'Fig3Spec': (
        'Fig3Spec(p_hat=0.7, trial_counts=(10, 100), prior=BetaParams(alpha=1.0, '
        'beta=1.0), mass=0.95)'
    ),
}

RECORDS = _records()
FROZEN = [name for name in RECORDS if name != "SessionCounts"]


def _fields(obj) -> dict[str, object]:
    return {name: getattr(obj, name) for name in obj.__match_args__}


@pytest.mark.parametrize("name", list(RECORDS))
def test_repr_is_the_dataclass_one(name):
    assert repr(RECORDS[name]) == DATACLASS_REPRS[name]


@pytest.mark.parametrize("name", list(RECORDS))
def test_keyword_and_positional_construction_agree(name):
    obj = RECORDS[name]
    values = _fields(obj)
    by_keyword = type(obj)(**values)
    by_position = type(obj)(*values.values())
    assert by_keyword == obj and by_position == obj
    assert repr(by_keyword) == repr(by_position) == repr(obj)


@pytest.mark.parametrize("name", FROZEN)
def test_equal_records_hash_alike(name):
    obj = RECORDS[name]
    twin = replace(obj)
    assert twin is not obj
    assert twin == obj and not twin != obj
    assert hash(twin) == hash(obj) == hash(tuple(_fields(obj).values()))
    assert obj.__eq__(tuple(_fields(obj).values())) is NotImplemented


@pytest.mark.parametrize("name", FROZEN)
def test_frozen_fields(name):
    obj = RECORDS[name]
    first = obj.__match_args__[0]
    before = repr(obj)
    with pytest.raises(FrozenInstanceError, match=f"cannot assign to field {first!r}"):
        setattr(obj, first, None)
    with pytest.raises(AttributeError, match="cannot assign to field 'other'"):
        obj.other = 1
    with pytest.raises(FrozenInstanceError, match=f"cannot delete field {first!r}"):
        delattr(obj, first)
    assert repr(obj) == before


def test_session_counts_are_mutable_and_unhashable():
    counts = SessionCounts(ResponseSpace(1, 3))
    with pytest.raises(TypeError, match="unhashable type: 'SessionCounts'"):
        hash(counts)
    counts.rows = 4
    assert counts.rows == 4
    assert counts != SessionCounts(ResponseSpace(1, 3))
    assert counts == SessionCounts(ResponseSpace(1, 3), rows=4)


def test_session_counts_get_their_own_dicts():
    first, second = SessionCounts(ResponseSpace(1, 3)), SessionCounts(ResponseSpace(1, 3))
    first.add("s1", "chat", 0, 2, True)
    assert first.levels is not second.levels and first.trials is not second.trials
    assert first.sessions is not second.sessions
    assert (second.levels, second.trials, second.sessions) == ({}, {}, {})
    assert "levels" not in vars(SessionCounts)
    given = {("chat", 0): [1, 0, 0]}
    assert SessionCounts(ResponseSpace(1, 3), levels=given).levels is given


def test_defaults():
    interval = CredibleInterval(lower=0.1, upper=0.2, mass=0.9, kind=IntervalKind.HDI)
    assert interval.unique is True and CredibleInterval.unique is True
    result = ValidationResult(Dataset(ResponseSpace(1, 3), ()))
    assert result.rejections == () and ValidationResult.rejections == ()
    assert EvalConfig().prior == BetaParams(1.0, 1.0)


# A bad call names the class and every argument at fault.
@pytest.mark.parametrize("call, message", [
    (lambda: ResponseSpace(1), "ResponseSpace() got bad arguments: missing 'max_code'"),
    (lambda: ResponseSpace(),
     "ResponseSpace() got bad arguments: missing 'min_code', 'max_code'"),
    (lambda: Rejection(1), "Rejection() got bad arguments: missing 'reason', 'detail'"),
    (lambda: SessionObservation(session_id="s", period=0),
     "SessionObservation() got bad arguments: missing 'category', 'rating'"),
    (lambda: SessionCounts(), "SessionCounts() got bad arguments: missing 'space'"),
    (lambda: ResponseSpace(1, 2, 3),
     "ResponseSpace() got bad arguments: 3 positional arguments for 2 fields"),
    (lambda: SessionCounts(ResponseSpace(1, 2), False, 0, {}, {}, {}, 7),
     "SessionCounts() got bad arguments: 7 positional arguments for 6 fields"),
    (lambda: ResponseSpace(1, 2, lo=3), "ResponseSpace() got bad arguments: unexpected 'lo'"),
    (lambda: ResponseSpace(min_code=1, lo=2),
     "ResponseSpace() got bad arguments: missing 'max_code'; unexpected 'lo'"),
    (lambda: ResponseSpace(1, min_code=2),
     "ResponseSpace() got bad arguments: missing 'max_code'; repeated 'min_code'"),
    (lambda: EntropyBits(0.5, value=1.0), "EntropyBits() got bad arguments: repeated 'value'"),
    (lambda: replace(ResponseSpace(1, 2), lo=3),
     "ResponseSpace() got bad arguments: unexpected 'lo'"),
    (lambda: BetaParams(1.0), "BetaParams() got bad arguments: missing 'beta'"),
    (lambda: CredibleInterval(0.1, 0.2, 0.9, IntervalKind.HDI, True, 5),
     "CredibleInterval() got bad arguments: 6 positional arguments for 5 fields"),
])
def test_bad_calls_name_the_arguments_at_fault(call, message):
    with pytest.raises(TypeError) as raised:
        call()
    assert str(raised.value) == message


@pytest.mark.parametrize("call, message", [
    (lambda: BetaParams(alpha=0.0, beta=1.0), "Beta parameters must be positive, got (0.0, 1.0)"),
    (lambda: CredibleInterval(lower=0.5, upper=0.2, mass=0.9, kind=IntervalKind.HDI),
     "interval endpoints out of order or range: [0.5, 0.2]"),
    (lambda: TrialSummary(3, 2), "completions must lie in [0, 2], got 3"),
    (lambda: replace(BetaParams(1.0, 2.0), beta=-1.0),
     "Beta parameters must be positive, got (1.0, -1.0)"),
])
def test_post_init_checks_every_construction(call, message):
    with pytest.raises(ValueError) as raised:
        call()
    assert str(raised.value) == message


def test_replace_keeps_the_other_fields():
    interval = CredibleInterval(0.1, 0.2, 0.9, IntervalKind.HDI)
    changed = replace(interval, upper=0.3)
    assert _fields(changed) == {**_fields(interval), "upper": 0.3}
    assert interval.upper == 0.2


def test_a_field_without_default_after_one_with_is_refused():
    with pytest.raises(TypeError, match="non-default field 'b' follows a default one"):
        @record
        class Bad:
            a: int = 0
            b: int


def test_package_generates_no_code():
    # Compiling source at run time is the cost the record module removes.
    package = Path(adux.__file__).parent
    calls = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id in ("exec", "eval", "compile")):
                calls.append(f"{path.name}:{node.lineno} {node.func.id}")
    assert calls == []
