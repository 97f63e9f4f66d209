"""Figure-of-merit estimators, channel-rate estimates with their
enumeration oracles, and the abort rule."""

import dataclasses
import itertools
import math
import re

import numpy as np
import pytest

from conftest import binom_sigma, load_workloads, table_from_records, tabulate

from cqca.analysis import (
    error_from_visibility,
    error_rate_theory,
    security_threshold,
    theoretical_merits,
    visibility_theory,
)
from cqca.channel import AttackConfig, ChannelConfig
from cqca.metrics import (
    ERROR_RATE_CEILING,
    TOLERANCE_FLOOR,
    InsufficientSample,
    MeritReport,
    _honest_baseline,
    abort_decision,
    compute_merit_report,
    expected_multi_rate,
    report_csv_row,
    report_text_block,
    table_merits,
)
from cqca.law import outcome_table
from cqca.parties import RoundRecord, RoundTable, run_rounds
from cqca.photonics import Action, Outcome

A, F = Action.A, Action.F
_workloads = load_workloads()
POINTS = (*_workloads.SCAN, *_workloads.DEFECT_SCAN)


def _record(sb, sc, outcome, click_b=False, click_c=False, multi=False, rid=0):
    return RoundRecord(rid, sb, sc, outcome, click_b, click_c, multi)


def _merits(records, n=None) -> dict:
    """Every figure the records' table supports; a figure whose conditional
    cell is empty raised ``InsufficientSample`` and is left out."""
    return table_merits(tabulate(records), n or len(records), partial=True)


class TestEstimators:
    def test_coincidence_rate_counts_double_clicks(self):
        sample = [
            _record(Action.A, Action.A, Outcome.NULL, click_b=True, click_c=True),
            _record(Action.A, Action.A, Outcome.NULL, click_b=True),
            _record(Action.F, Action.F, Outcome.D2),
        ]
        assert _merits(sample)["coincidence_rate"] == 0.5

    def test_coincidence_rate_needs_aa_rounds(self):
        assert "coincidence_rate" not in _merits([_record(Action.F, Action.F, Outcome.D2)])

    def test_visibility_contrast(self):
        sample = (
            [_record(Action.F, Action.F, Outcome.D2)] * 3
            + [_record(Action.F, Action.F, Outcome.D1)]
            + [_record(Action.F, Action.F, Outcome.NULL)]  # no click: excluded
        )
        assert _merits(sample)["visibility"] == pytest.approx(0.5)

    def test_visibility_needs_ff_clicks(self):
        assert "visibility" not in _merits([_record(Action.F, Action.F, Outcome.NULL)])

    def test_bias_is_max_over_cells(self):
        sample = (
            [_record(Action.A, Action.F, Outcome.D1)] * 3
            + [_record(Action.A, Action.F, Outcome.D2)]
            + [_record(Action.F, Action.A, Outcome.D1)]
            + [_record(Action.F, Action.A, Outcome.D2)]
        )
        # AF cell: |3 - 1| / 4 = 0.5; FA cell: 0
        assert _merits(sample)["bias"] == pytest.approx(0.5)

    def test_bias_needs_anticorrelated_rounds(self):
        assert "bias" not in _merits([_record(Action.F, Action.F, Outcome.D2)])

    def test_error_rate_conditions_on_d1(self):
        sample = [
            _record(Action.F, Action.F, Outcome.D1),
            _record(Action.A, Action.F, Outcome.D1),
            _record(Action.F, Action.A, Outcome.D1),
            _record(Action.A, Action.A, Outcome.D1),
            _record(Action.F, Action.F, Outcome.D2),  # not D1: ignored
        ]
        assert _merits(sample)["error_rate"] == pytest.approx(0.5)

    def test_error_rate_needs_d1_rounds(self):
        assert "error_rate" not in _merits([_record(Action.F, Action.F, Outcome.D2)])

    def test_multi_and_loss_on_synthetic_stream(self):
        rounds = (
            [_record(Action.F, Action.F, Outcome.D2, multi=True)]
            + [_record(Action.F, Action.F, Outcome.D2)]
            + [_record(Action.A, Action.A, Outcome.NULL, click_b=True)] * 2
        )
        merits = _merits(rounds, 4)
        assert merits["multi_rate"] == 0.25
        assert merits["loss_rate"] == 0.0  # null fraction 1/2 is the honest baseline

    def test_loss_estimate_inverts_null_law(self):
        nulls = [_record(Action.A, Action.A, Outcome.NULL)] * 55
        clicks = [_record(Action.F, Action.F, Outcome.D2)] * 45
        assert _merits(nulls + clicks, 100)["loss_rate"] == pytest.approx(0.1, abs=1e-12)


def _walk(disclosed, stream, n) -> dict:
    """The figures of merit by one in-order walk over (cell, weight) pairs
    of the disclosed sample and of the stream: a cell's count of records,
    or its probability.  Returns the figures it supports, the report's
    sample counts, the ``InsufficientSample`` messages of the figures it
    does not support in report order, and the sums the honest baseline
    reads.  The oracle for the tally product and the expected figures."""
    total = aa = aa_both = ff1 = ff2 = ff_clicks = d1 = d1_correlated = 0
    anti = {(A, F): [0, 0, 0], (F, A): [0, 0, 0]}
    for (sb, sc, outcome, click_b, click_c, _), w in disclosed:
        total += w
        if (sb, sc) == (A, A):
            aa += w
            if click_b and click_c:
                aa_both += w
        elif (sb, sc) == (F, F):
            if outcome is Outcome.D1:
                ff1 += w
            elif outcome is Outcome.D2:
                ff2 += w
            if outcome is not Outcome.NULL:
                ff_clicks += w
        else:
            cell = anti[sb, sc]
            cell[0] += w
            if outcome is Outcome.D1:
                cell[1] += w
            elif outcome is Outcome.D2:
                cell[2] += w
        if outcome is Outcome.D1:
            d1 += w
            if sb is sc:
                d1_correlated += w
    null = multi = 0
    for (_, _, outcome, _, _, multi_count), w in stream:
        if outcome is Outcome.NULL:
            null += w
        if multi_count:
            multi += w
    merits, missing = {}, []
    if aa:
        merits["coincidence_rate"] = aa_both / aa
    else:
        missing.append("no disclosed (A,A) rounds")
    if ff1 + ff2:
        merits["visibility"] = (ff2 - ff1) / (ff1 + ff2)
    else:
        missing.append("no disclosed (F,F) rounds with a click")
    biases = [abs(n1 - n2) / m for m, n1, n2 in anti.values() if m > 0]
    if biases:
        merits["bias"] = max(biases)
    else:
        missing.append("no disclosed anti-correlated rounds")
    if d1:
        merits["error_rate"] = d1_correlated / d1
    else:
        missing.append("no disclosed D1 rounds")
    merits["multi_rate"] = multi / n
    merits["loss_rate"] = min(1.0, max(0.0, 2.0 * (null / n) - 1.0))
    counts = {
        "disclosed": total, "aa": aa, "ff_clicks": ff_clicks,
        "af": anti[A, F][0], "fa": anti[F, A][0], "d1": d1,
    }
    return {"merits": merits, "counts": counts, "missing": missing, "anti": anti, "null": null}


class TestTallies:
    @pytest.mark.parametrize("point", POINTS, ids=lambda p: p.label)
    def test_report_is_the_record_walk(self, point):
        n = 2_000
        for seed in range(1, 21):
            rounds = run_rounds(n, point.attack, point.channel, seed).rounds
            drawn = np.sort(np.random.default_rng(seed).choice(n, n // 4, False))
            sample = RoundTable(rounds.row_ids[drawn], rounds.layout, rounds.sampled[drawn])
            # integer sums do not depend on the order the records are walked
            stream, disclosed = tabulate(rounds).items(), tabulate(sample).items()
            for table, walk in ((sample, _walk(disclosed, stream, n)),
                                (rounds, _walk(stream, stream, n))):
                if walk["missing"]:
                    with pytest.raises(InsufficientSample, match=re.escape(walk["missing"][0])):
                        compute_merit_report(table, rounds, n)
                    continue
                report = compute_merit_report(table, rounds, n)
                assert dataclasses.asdict(report) == {
                    "n": n, **walk["merits"], "counts": walk["counts"]
                }, (point.label, seed)

    @pytest.mark.parametrize("point", POINTS, ids=lambda p: p.label)
    def test_expected_figures_are_the_in_order_walk(self, point):
        # the lossy points are those where a float matrix product would move
        # the last bits of the coincidence, error and multi rates
        table = list(outcome_table(point.attack, point.channel).items())
        assert theoretical_merits(point.attack, point.channel) == _walk(table, table, 1)["merits"]
        honest = list(outcome_table(AttackConfig.none(), point.channel).items())
        walk = _walk(honest, honest, 1)
        (m_af, n1_af, n2_af), (m_fa, n1_fa, n2_fa) = walk["anti"].values()
        p1, p2 = (n1_af + n1_fa) / (m_af + m_fa), (n2_af + n2_fa) / (m_af + m_fa)
        baseline = _honest_baseline(point.channel)
        assert not walk["missing"]
        assert dict(baseline.expected) == walk["merits"]
        assert baseline.bias_variance == p1 + p2 - (p1 - p2) ** 2
        assert baseline.null_fraction == walk["null"]

    @pytest.mark.parametrize("records,message", [
        ([_record(F, F, Outcome.D2)], "no disclosed (A,A) rounds"),
        ([_record(A, A, Outcome.NULL, click_b=True)], "no disclosed (F,F) rounds with a click"),
        (
            [_record(A, A, Outcome.NULL, click_c=True), _record(F, F, Outcome.D1)],
            "no disclosed anti-correlated rounds",
        ),
        (
            [_record(A, A, Outcome.NULL, click_b=True), _record(F, F, Outcome.D2),
             _record(A, F, Outcome.NULL)],
            "no disclosed D1 rounds",
        ),
    ], ids=["coincidence", "visibility", "bias", "error-rate"])
    def test_insufficient_sample_names_the_first_empty_figure(self, records, message):
        table = table_from_records(records)
        with pytest.raises(InsufficientSample, match=f"^{re.escape(message)}$"):
            compute_merit_report(table, table, len(table))


class TestChannelRateEstimates:
    def test_loss_rate_recovered_from_simulation(self):
        n = 30_000
        loss = 0.08
        result = run_rounds(n, channel_cfg=ChannelConfig(loss_rate=loss), seed=201)
        report = compute_merit_report(result.rounds, result.rounds, n)
        sigma = 2.0 * binom_sigma((1 + loss) / 2, n)
        assert abs(report.loss_rate - loss) <= 3 * sigma

    def test_multi_rate_matches_dark_model(self):
        n = 30_000
        dark = 0.01
        result = run_rounds(n, channel_cfg=ChannelConfig(dark_rate=dark), seed=202)
        report = compute_merit_report(result.rounds, result.rounds, n)
        expected = expected_multi_rate(dark)
        sigma = binom_sigma(expected, n)
        assert abs(report.multi_rate - expected) <= 3 * sigma

    def test_expected_multi_rate_against_enumeration_oracle(self):
        # enumerate the honest click layout exactly: one real click placed
        # per the outcome law, then every other active detector dark-fires
        # independently
        dark = 0.03

        def cell_multi(active_free: int, real_clicks: int, weight: float) -> float:
            total = 0.0
            for fires in itertools.product((0, 1), repeat=active_free):
                prob = 1.0
                for f in fires:
                    prob *= dark if f else (1.0 - dark)
                if real_clicks + sum(fires) >= 2:
                    total += prob
            return weight * total

        # (F,F): real D2 click, D1 free             -> 1 free detector
        # (A,F)/(F,A): absorbed half: station click, D1+D2 free;
        #              surviving half: source click, other port + station free
        # (A,A): one station click, other station + both ports free
        oracle = (
            cell_multi(1, 1, 0.25)
            + 2 * (cell_multi(2, 1, 0.125) + cell_multi(2, 1, 0.125))
            + cell_multi(3, 1, 0.25)
        )
        assert expected_multi_rate(dark) == pytest.approx(oracle, abs=1e-12)

    def test_coincidence_floor_under_dark_counts(self):
        n = 40_000
        dark = 0.02
        result = run_rounds(n, channel_cfg=ChannelConfig(dark_rate=dark), seed=203)
        report = compute_merit_report(result.rounds, result.rounds, n)
        m_aa = report.counts["aa"]
        assert abs(report.coincidence_rate - dark) <= 3 * binom_sigma(dark, m_aa)


def _theory_report(theta: float, n: int = 100_000) -> MeritReport:
    quarter = n // 4
    return MeritReport(
        n=n,
        coincidence_rate=0.0,
        visibility=visibility_theory(theta),
        bias=0.0,
        error_rate=error_rate_theory(theta),
        multi_rate=0.0,
        loss_rate=0.0,
        counts={"aa": quarter, "af": quarter, "fa": quarter, "ff_clicks": quarter, "d1": n // 8},
    )


class TestAbortDecision:
    def test_honest_simulation_passes(self):
        n = 20_000
        result = run_rounds(n, seed=204)
        report = compute_merit_report(result.rounds, result.rounds, n)
        verdict = abort_decision(report)
        assert verdict.key_produced, verdict.abort_reasons

    def test_weak_probe_passes_with_shortened_key(self):
        # error rate 0.038 and visibility 0.96 stay under the security
        # ceiling, so the run passes and privacy amplification absorbs the leak
        verdict = abort_decision(_theory_report(0.2))
        assert verdict.key_produced

    def test_strong_probe_aborts_on_error_rate(self):
        verdict = abort_decision(_theory_report(0.6))
        assert not verdict.key_produced
        assert "errorRate" in verdict.abort_reasons
        assert "visibility" in verdict.abort_reasons

    def test_abort_monotone_in_probe_strength(self):
        grid = [i * math.pi / 40 for i in range(1, 20)]
        aborted = [not abort_decision(_theory_report(t)).key_produced for t in grid]
        first_abort = aborted.index(True)
        assert all(aborted[first_abort:])

    def test_coincidence_gate(self):
        report = MeritReport(
            n=10_000,
            coincidence_rate=0.3,
            visibility=1.0,
            bias=0.0,
            error_rate=0.0,
            multi_rate=0.0,
            loss_rate=0.0,
            counts={"aa": 2500, "af": 2500, "fa": 2500, "d1": 1250},
        )
        verdict = abort_decision(report)
        assert verdict.abort_reasons == ("coincidence",)

    def test_unexpected_loss_gate(self):
        report = MeritReport(
            n=10_000,
            coincidence_rate=0.0,
            visibility=1.0,
            bias=0.0,
            error_rate=0.0,
            multi_rate=0.0,
            loss_rate=0.2,
            counts={"aa": 2500, "af": 2500, "fa": 2500, "d1": 1250},
        )
        assert abort_decision(report).abort_reasons == ("lossRate",)
        lossy = ChannelConfig(loss_rate=0.2)
        assert abort_decision(report, lossy).key_produced

    def test_honest_lossy_dark_expectation_passes(self):
        # dark clicks announce some rounds that loss left NULL, so the
        # honest loss estimate expects about 0.176 here, not 0.2
        channel = ChannelConfig(loss_rate=0.2, dark_rate=0.01)
        n = 100_000
        merits = theoretical_merits(AttackConfig.none(), channel)
        report = MeritReport(
            n=n,
            **merits,
            counts={"aa": n // 4, "af": n // 4, "fa": n // 4, "d1": n // 8},
        )
        assert abort_decision(report, channel).abort_reasons == ()

    @pytest.mark.parametrize("scale,aborts", [(0.99, False), (1.01, True)])
    def test_bias_gate_uses_the_multinomial_sigma(self, scale, aborts):
        # honest lossless cell: p1 = p2 = 1/4, so Var((n1 - n2)/m) = 1/(2m)
        report = _theory_report(0.0, n=10_000)
        m = report.counts["af"]
        tolerance = 4.0 * math.sqrt(0.5 / m)
        assert tolerance > TOLERANCE_FLOOR
        report = dataclasses.replace(report, bias=scale * tolerance)
        reasons = abort_decision(report).abort_reasons
        assert reasons == (("bias",) if aborts else ())

    def test_honest_baseline_is_derived_once_and_read_only(self):
        channel = ChannelConfig(loss_rate=0.2, dark_rate=0.01)
        baseline = _honest_baseline(channel)
        assert _honest_baseline(ChannelConfig(loss_rate=0.2, dark_rate=0.01)) is baseline
        assert dict(baseline.expected) == theoretical_merits(AttackConfig.none(), channel)
        with pytest.raises(TypeError):
            baseline.expected["bias"] = 1.0
        with pytest.raises(AttributeError):
            baseline.null_fraction = 0.0

    def test_ceiling_is_the_security_threshold(self):
        assert ERROR_RATE_CEILING == security_threshold()[1]

    @pytest.mark.parametrize("offset,aborts", [(-1e-4, False), (1e-4, True)])
    def test_error_rate_gate_at_threshold(self, offset, aborts):
        report = dataclasses.replace(
            _theory_report(0.0), error_rate=security_threshold()[1] + offset
        )
        reasons = abort_decision(report).abort_reasons
        assert ("errorRate" in reasons) is aborts

    @pytest.mark.parametrize("offset,aborts", [(-1e-4, False), (1e-4, True)])
    def test_visibility_gate_at_threshold(self, offset, aborts):
        e = security_threshold()[1] + offset
        visibility = (1.0 - 2.0 * e) / (1.0 - e)  # inverts error_from_visibility
        assert error_from_visibility(visibility) == pytest.approx(e, abs=1e-12)
        report = dataclasses.replace(_theory_report(0.0), visibility=visibility)
        reasons = abort_decision(report).abort_reasons
        assert ("visibility" in reasons) is aborts


class TestReportSerialization:
    def test_csv_row_shape(self):
        report = _theory_report(0.0, n=1000)
        verdict = abort_decision(report)
        row = report_csv_row(report, verdict)
        fields = row.split(",")
        assert fields[0] == "1000"
        assert fields[-1] == "pass"
        assert len(fields) == 8

    def test_csv_row_abort_reasons_joined(self):
        report = _theory_report(0.6)
        verdict = abort_decision(report)
        assert report_csv_row(report, verdict).endswith("abort:visibility+errorRate")

    def test_text_block_mentions_every_figure(self):
        report = _theory_report(0.0, n=1000)
        verdict = abort_decision(report)
        block = report_text_block(report, verdict, expected={"visibility": 1.0})
        for token in ("kappa", "visibility", "bias", "errorRate", "r =", "lambda", "verdict"):
            assert token in block
        assert "(expected 1.000000)" in block
