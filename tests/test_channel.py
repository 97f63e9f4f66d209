"""Channel behavior: identity on honest runs, probe insertion rules,
loss composition, and config validation."""

import math

import pytest

from cqca.channel import AttackConfig, AttackKind, ChannelConfig, transmit_onward, return_leg
from cqca.metrics import compute_merit_report
from cqca.parties import run_rounds
from cqca.photonics import attach_eve_probe, emit


class TestTransmitOnward:
    def test_honest_channel_is_identity(self):
        state = emit()
        assert transmit_onward(state, AttackConfig.none()) == state

    def test_probe_attached_when_schedule_known(self):
        out = transmit_onward(emit(), AttackConfig.eve_probe(0.4))
        assert out.probe_dim == 4

    def test_source_attacks_bypass_hook(self):
        state = emit()
        for attack in (AttackConfig.alice_single_path(1.0), AttackConfig.alice_double_path(1.0)):
            assert transmit_onward(state, attack) == state


class TestReturnLeg:
    def test_identity_on_plain_state(self):
        state = emit()
        assert return_leg(state) == state

    def test_identity_on_probed_state(self):
        state = attach_eve_probe(emit(), 0.9)
        assert return_leg(state) == state


class TestLossComposition:
    def test_null_excess_matches_loss_rate(self):
        n = 30_000
        loss = 0.05
        result = run_rounds(n, channel_cfg=ChannelConfig(loss_rate=loss), seed=17)
        loss_hat = compute_merit_report(result.rounds, result.rounds, n).loss_rate
        # lambda-hat = 2*null - 1 doubles the null-count fluctuation
        sigma = 2.0 * math.sqrt(((1 + loss) / 2) * ((1 - loss) / 2) / n)
        assert abs(loss_hat - loss) <= 3.0 * sigma


class TestValidation:
    @pytest.mark.parametrize("loss,dark", [(-0.1, 0.0), (1.0, 0.0), (0.0, -0.2), (0.0, 1.0)])
    def test_channel_rejects_bad_rates(self, loss, dark):
        with pytest.raises(ValueError):
            ChannelConfig(loss_rate=loss, dark_rate=dark).validate()

    def test_attack_rejects_bad_theta(self):
        with pytest.raises(ValueError):
            AttackConfig(kind=AttackKind.EVE_PROBE, theta=2.0).validate()

    def test_attack_rejects_bad_probability(self):
        with pytest.raises(ValueError):
            AttackConfig(kind=AttackKind.ALICE_DOUBLE_PATH, p=1.5).validate()
