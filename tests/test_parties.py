"""Protocol-session tests: the packet codec, sifting, causality of the
announcement stream, and transcript determinism."""

import hashlib
import itertools
import math
import struct
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import load_workloads, one_shot_draw, table_from_records
from cqca import adversary, metrics, parties
from cqca.channel import AttackConfig, ChannelConfig
from cqca.metrics import Verdict
from cqca.parties import (
    _CHUNK_IDS,
    _EVE,
    _ROUNDS,
    _SAMPLER,
    BodyType,
    ControlOp,
    MAGIC,
    VERSION,
    HybridPacket,
    MalformedPacket,
    PartyId,
    RoundRecord,
    RoundTable,
    announce_body,
    control_body,
    decode_packet,
    disclose_body,
    encode_packet,
    joined_decimal,
    key_to_hex,
    line_to_round,
    quantum_slot_body,
    round_to_line,
    run_protocol,
    run_rounds,
    sift_key,
    transcript_chunks,
    transcript_lines,
)
from cqca.photonics import Action, Outcome


def _packet(body_type=BodyType.ANNOUNCE, body=b"", number=0):
    return HybridPacket(number, PartyId.ALICE, PartyId.BOB, body_type, body)


class TestPacketCodec:
    @pytest.mark.parametrize(
        "body_type,body",
        [
            (BodyType.QUANTUM_SLOT, quantum_slot_body(123456)),
            (BodyType.ANNOUNCE, announce_body(7, Outcome.D1, False)),
            (BodyType.DISCLOSE, disclose_body(7, Action.A, True)),
            (BodyType.CONTROL, control_body(ControlOp.SAMPLE, b"\x00\x01")),
            (BodyType.CONTROL, b""),
        ],
    )
    def test_round_trip(self, body_type, body):
        packet = _packet(body_type, body, number=42)
        assert decode_packet(encode_packet(packet)) == packet

    @settings(max_examples=150, deadline=None)
    @given(
        number=st.integers(min_value=0, max_value=0xFFFFFFFF),
        origin=st.sampled_from([PartyId.ALICE, PartyId.BOB, PartyId.CHARLIE]),
        destination=st.sampled_from([PartyId.ALICE, PartyId.BOB, PartyId.CHARLIE]),
        body_type=st.sampled_from(list(BodyType)),
        body=st.binary(max_size=300),
    )
    def test_round_trip_property(self, number, origin, destination, body_type, body):
        packet = HybridPacket(number, origin, destination, body_type, body)
        assert decode_packet(encode_packet(packet)) == packet

    def test_flipped_checksum_rejected(self):
        wire = bytearray(encode_packet(_packet(body=b"hello")))
        wire[-1] ^= 0xFF
        with pytest.raises(MalformedPacket, match="checksum"):
            decode_packet(bytes(wire))

    def test_corrupted_body_rejected(self):
        wire = bytearray(encode_packet(_packet(body=b"hello")))
        wire[13] ^= 0x01
        with pytest.raises(MalformedPacket, match="checksum"):
            decode_packet(bytes(wire))

    def test_bad_magic_rejected(self):
        wire = bytearray(encode_packet(_packet(body=b"x")))
        wire[0] = 0x00
        with pytest.raises(MalformedPacket, match="magic"):
            decode_packet(bytes(wire))

    def test_truncation_rejected(self):
        wire = encode_packet(_packet(body=b"hello world"))
        for cut in (2, 11, len(wire) - 1):
            with pytest.raises(MalformedPacket, match="truncated"):
                decode_packet(wire[:cut])

    def test_trailing_bytes_rejected(self):
        wire = encode_packet(_packet(body=b"x"))
        with pytest.raises(MalformedPacket, match="trailing"):
            decode_packet(wire + b"\x00")

    def test_bad_terminator_rejected(self):
        wire = bytearray(encode_packet(_packet(body=b"x")))
        wire[-2] = 0xFF
        with pytest.raises(MalformedPacket, match="terminator"):
            decode_packet(bytes(wire))

    def test_unknown_body_type_rejected(self):
        wire = bytearray(encode_packet(_packet(body=b"x")))
        wire[11] = 0x7F
        with pytest.raises(MalformedPacket, match="body type"):
            decode_packet(bytes(wire))

    def test_eavesdropper_never_a_wire_party(self):
        wire = bytearray(encode_packet(_packet(body=b"x")))
        wire[7] = PartyId.EVE.value
        with pytest.raises(MalformedPacket, match="party"):
            decode_packet(bytes(wire))
        with pytest.raises(ValueError):
            encode_packet(
                HybridPacket(0, PartyId.EVE, PartyId.BOB, BodyType.CONTROL, b"")
            )

    def test_version_is_a_wire_constant(self):
        for body_type in BodyType:
            assert encode_packet(_packet(body_type, b"x"))[2] == VERSION
        for version in (0, 2, 255):
            wire = bytearray(encode_packet(_packet(body=b"x")))
            wire[2] = version
            with pytest.raises(MalformedPacket, match="version"):
                decode_packet(bytes(wire))

    def test_oversized_body_rejected_on_encode(self):
        with pytest.raises(ValueError):
            encode_packet(_packet(body=b"\x00" * 70_000))

    def test_packet_log_numbers_per_direction(self):
        alice, bob, charlie = PartyId.ALICE, PartyId.BOB, PartyId.CHARLIE
        packets = itertools.islice(run_protocol(2_000, 0.25, seed=1).packets, 8)
        numbers = [(p.origin, p.destination, p.packet_number) for p in packets]
        assert numbers == [
            (charlie, alice, 0),
            (alice, charlie, 0),
            (alice, bob, 0),
            (bob, alice, 0),
            (alice, bob, 1),
            (alice, charlie, 1),
            (alice, bob, 2),
            (alice, charlie, 2),
        ]

    @settings(max_examples=400, deadline=None)
    @given(data=st.binary(max_size=80))
    def test_decoding_arbitrary_bytes_raises_only_malformed(self, data):
        try:
            decode_packet(data)
        except MalformedPacket:
            pass

    @settings(max_examples=400, deadline=None)
    @given(rest=st.binary(max_size=80))
    def test_decoding_after_a_valid_prefix_raises_only_malformed(self, rest):
        try:
            decode_packet(MAGIC + b"\x01" + rest)
        except MalformedPacket:
            pass


def _record(rid, sb, sc, outcome, sampled=False):
    return RoundRecord(rid, sb, sc, outcome, False, False, False, sampled)


def _sift(records):
    key_bob, key_charlie = sift_key(table_from_records(records))
    return list(key_bob), list(key_charlie)


#: The bit a D1 announcement implies on each pair of settings (Bob's,
#: Charlie's): anti-correlated settings give one, correlated ones none (-1).
SIFTED_BIT = {
    (Action.A, Action.F): 0,
    (Action.F, Action.A): 1,
    (Action.F, Action.F): -1,
    (Action.A, Action.A): -1,
}


class TestSifting:
    def test_anticorrelated_conventions(self):
        # on every row of every scanned law's layout, Bob keys 1 on F,
        # Charlie 1 on A, and the sifted bit is the one their settings imply
        workloads = load_workloads()
        for point in (*workloads.SCAN, *workloads.DEFECT_SCAN):
            layout = parties._sampling_plan(point.attack, point.channel).layout
            for row, (setting_b, setting_c, *_) in enumerate(layout.cells):
                where = (point.label, row)
                assert layout.bit_b[row] == (setting_b is Action.F), where
                assert layout.bit_c[row] == (setting_c is Action.A), where
                assert layout.sifted_bit[row] == SIFTED_BIT[setting_b, setting_c], where

    def test_local_views_agree_on_anticorrelated_rounds(self):
        rounds = [
            _record(0, Action.A, Action.F, Outcome.D1),
            _record(1, Action.F, Action.A, Outcome.D1),
            _record(2, Action.A, Action.F, Outcome.D2),  # not D1: dropped
        ]
        assert _sift(rounds) == ([0, 1], [0, 1])

    def test_correlated_d1_round_counts_as_key_error(self):
        rounds = [_record(0, Action.F, Action.F, Outcome.D1)]
        key_bob, key_charlie = _sift(rounds)
        assert key_bob == [1] and key_charlie == [0]

    def test_sampled_rounds_excluded(self):
        rounds = [_record(0, Action.A, Action.F, Outcome.D1, sampled=True)]
        assert _sift(rounds) == ([], [])

    def test_no_d1_rounds_vacuous(self):
        assert _sift([_record(0, Action.F, Action.F, Outcome.D2)]) == ([], [])


class TestKeyHex:
    def test_packs_msb_first(self):
        assert key_to_hex([1, 0, 1, 0, 1, 0, 1, 0]) == "aa"
        assert key_to_hex([1]) == "80"
        assert key_to_hex([]) == ""

    def test_session_keys_pack_like_the_array_cast(self, honest):
        for key in (honest.key_bob, honest.key_charlie):
            assert len(key) > 1000
            assert key_to_hex(key) == np.packbits(np.frombuffer(key, np.uint8)).tobytes().hex()
            assert key_to_hex(list(key)) == key_to_hex(key)


FORMAT_SESSIONS = {
    "honest": (AttackConfig.none(), ChannelConfig()),
    "eve-0.3-lossy": (AttackConfig.eve_probe(0.3), ChannelConfig(loss_rate=0.2, dark_rate=0.01)),
    "single-0.5": (AttackConfig.alice_single_path(0.5), ChannelConfig()),
    "double-1.0": (AttackConfig.alice_double_path(1.0), ChannelConfig()),
}


@pytest.fixture(scope="module")
def honest():
    return run_protocol(20_000, 0.25, seed=101)


class TestProtocolSession:
    def test_honest_run_produces_key(self, honest):
        assert honest.verdict == Verdict(True, ())

    def test_key_length_near_expected(self, honest):
        kept = 20_000 - int(20_000 * 0.25)
        expected = kept / 8
        sigma = math.sqrt(kept * (1 / 8) * (7 / 8))
        assert abs(len(honest.key_bob) - expected) <= 3 * sigma

    def test_keys_identical_in_honest_lossless_run(self, honest):
        assert honest.key_bob == honest.key_charlie

    def test_keys_reconstructible_from_rounds_alone(self):
        # on the lossy Eve point correlated D1 rounds are keyed too
        for session in ("honest", "eve-0.3-lossy"):
            attack, channel = FORMAT_SESSIONS[session]
            transcript = run_protocol(5_000, 0.25, attack, seed=5, channel_cfg=channel)
            assert transcript.verdict.key_produced, session
            keys = (transcript.key_bob, transcript.key_charlie)
            assert sift_key(transcript.rounds) == keys, session

    def test_sifted_bits_only_on_unsampled_d1_rounds(self):
        # both ways: a round carries a bit exactly when its session released
        # keys, it is an unsampled D1 round and its settings give a bit; in
        # the records and in the written lines, on keyed and aborted sessions
        for session, (attack, channel) in FORMAT_SESSIONS.items():
            transcript = run_protocol(5_000, 0.25, attack, seed=5, channel_cfg=channel)
            keyed = transcript.verdict.key_produced
            assert keyed == (session in ("honest", "eve-0.3-lossy"))
            lines = transcript_lines(transcript)
            carried = 0
            for r, line in zip(transcript.rounds, lines, strict=True):
                bit = SIFTED_BIT[r.setting_b, r.setting_c]
                if not (keyed and r.outcome_alice is Outcome.D1 and not r.sampled and bit >= 0):
                    bit = None
                carried += bit is not None
                assert r.sifted_bit == bit, (session, r)
                assert line_to_round(line).sifted_bit == bit, (session, line)
            assert (carried > 0) == keyed, session

    def test_local_view_sifting_from_censored_transcript(self, honest):
        # Bob's view: his settings plus the announcements; Charlie's likewise
        bob_view = [
            (r.setting_b, r.outcome_alice, r.sampled) for r in honest.rounds
        ]
        bob_key = [
            0 if sb is Action.A else 1
            for sb, outcome, sampled in bob_view
            if outcome is Outcome.D1 and not sampled
        ]
        charlie_view = [
            (r.setting_c, r.outcome_alice, r.sampled) for r in honest.rounds
        ]
        charlie_key = [
            0 if sc is Action.F else 1
            for sc, outcome, sampled in charlie_view
            if outcome is Outcome.D1 and not sampled
        ]
        assert bob_key == list(honest.key_bob)
        assert charlie_key == list(honest.key_charlie)

    def test_announcements_precede_disclosures(self, honest):
        announced = set()
        disclosed_before_announce = []
        for packet in honest.packets:
            if packet.body_type is BodyType.ANNOUNCE:
                announced.add(struct.unpack(">Q", packet.body[:8])[0])
            elif packet.body_type is BodyType.DISCLOSE:
                rid = struct.unpack(">Q", packet.body[:8])[0]
                if rid not in announced:
                    disclosed_before_announce.append(rid)
        assert disclosed_before_announce == []

    def test_packet_stream_reencodes_and_numbers_gapless(self, honest):
        seen: dict[tuple, list[int]] = {}
        for packet in honest.packets:
            assert decode_packet(encode_packet(packet)) == packet
            seen.setdefault((packet.origin, packet.destination), []).append(
                packet.packet_number
            )
        for numbers in seen.values():
            assert numbers == list(range(len(numbers)))

    def test_quantum_slots_reference_simulated_rounds(self, honest):
        slots = [p for p in honest.packets if p.body_type is BodyType.QUANTUM_SLOT]
        assert len(slots) == 2 * len(honest.rounds)
        for packet in slots[:100]:
            rid = struct.unpack(">Q", packet.body)[0]
            assert 0 <= rid < len(honest.rounds)

    def test_sampled_fraction(self, honest):
        assert sum(r.sampled for r in honest.rounds) == int(20_000 * 0.25)

    def test_deterministic_transcripts(self):
        a = run_protocol(3_000, 0.25, seed=7)
        b = run_protocol(3_000, 0.25, seed=7)
        assert transcript_lines(a) == transcript_lines(b)
        assert [encode_packet(p) for p in a.packets] == [encode_packet(p) for p in b.packets]
        c = run_protocol(3_000, 0.25, seed=8)
        assert transcript_lines(a) != transcript_lines(c)

    @pytest.mark.parametrize("attack,channel", [
        (AttackConfig.none(), ChannelConfig()),
        (AttackConfig.eve_probe(0.3), ChannelConfig()),
        (AttackConfig.eve_probe(0.3), ChannelConfig(loss_rate=0.2, dark_rate=0.01)),
        (AttackConfig.alice_single_path(0.5), ChannelConfig()),
        (AttackConfig.alice_double_path(0.5), ChannelConfig(loss_rate=0.2, dark_rate=0.01)),
    ], ids=["honest", "eve", "eve-lossy", "single", "double-lossy"])
    def test_scribbled_session_does_not_reach_the_next(self, attack, channel):
        def session(seed):
            return run_protocol(5_000, 0.25, attack, seed, channel_cfg=channel)

        def columns(t):
            return (
                t.rounds.row_ids, t.rounds.sampled,
                t.eve_records.round_ids, t.eve_records.guesses, t.eve_records.true_bits,
            )

        def snapshot(t):
            keys = (t.key_bob, t.key_charlie, t.key_round_ids.tolist())
            data = [c.tobytes() for c in columns(t)]
            return str(t.verdict), repr(t.report), keys, t.rounds.cells, data

        before = snapshot(session(5))
        scribbled = session(6)
        for column in (*columns(scribbled), scribbled.key_round_ids):
            column[:] = 1
        scribbled.report.counts.clear()
        assert snapshot(session(5)) == before

    def test_double_path_attack_aborts_on_coincidence(self):
        transcript = run_protocol(
            10_000, 0.25, attack=AttackConfig.alice_double_path(1.0), seed=11
        )
        assert not transcript.verdict.key_produced
        assert "coincidence" in transcript.verdict.abort_reasons
        assert list(transcript.key_bob) == [] and list(transcript.key_charlie) == []

    def test_counted_report_is_the_table_report(self):
        # the session's one count of row-and-sample codes reports as the
        # disclosed rounds' table beside the whole stream's, across blocks
        workloads = load_workloads()

        def report(disclosed, stream, n):
            try:
                return metrics.compute_merit_report(disclosed, stream, n)
            except metrics.InsufficientSample as exc:
                return f"InsufficientSample({exc})"

        f = 0.25
        for n in (5_000, _CHUNK_IDS - 1, _CHUNK_IDS + 1, 3 * _CHUNK_IDS + 7):
            for point in (*workloads.SCAN, *workloads.DEFECT_SCAN):
                for seed in range(1, 21):
                    rounds = parties._draw_rounds(n, point.attack, point.channel, seed)
                    sampler = parties._stream(seed, _SAMPLER)
                    rounds.sampled[sampler.choice(n, int(n * f), replace=False)] = True
                    disclosed, stream = parties._session_counts(rounds)
                    assert disclosed.row_counts().sum() == int(n * f)
                    assert stream.row_counts().sum() == n
                    drawn = np.flatnonzero(rounds.sampled)
                    table = RoundTable(rounds.row_ids[drawn], rounds.layout, rounds.sampled[drawn])
                    assert report(disclosed, stream, n) == report(table, rounds, n), (n, point, seed)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            run_protocol(0, 0.25)
        with pytest.raises(ValueError):
            run_protocol(100, 0.0)
        with pytest.raises(ValueError):
            run_protocol(100, 1.0)


class TestStreams:
    @pytest.mark.parametrize("seed", [0, 1, 7, 2**31 - 1])
    def test_each_stream_is_the_spawned_child(self, seed):
        children = np.random.SeedSequence(seed).spawn(3)
        assert (_ROUNDS, _EVE, _SAMPLER) == (0, 1, 2)
        for index, child in enumerate(children):
            state = parties._stream(seed, index).bit_generator.state
            assert state == np.random.PCG64(child).state, index

    @pytest.mark.parametrize("session,built", [
        (lambda: run_protocol(2_000, 0.25, seed=3), [_ROUNDS, _SAMPLER]),
        (lambda: run_rounds(2_000, seed=3), [_ROUNDS]),
        (lambda: run_rounds(2_000, AttackConfig.eve_probe(0.3), seed=3), [_ROUNDS, _EVE]),
        (lambda: run_protocol(2_000, 0.25, AttackConfig.eve_probe(0.2), seed=3),
         [_ROUNDS, _SAMPLER, _EVE]),
        # the attack is caught, so Eve's stream is not read
        (lambda: run_protocol(2_000, 0.25, AttackConfig.alice_double_path(1.0), seed=3),
         [_ROUNDS, _SAMPLER]),
    ], ids=["honest-protocol", "honest-rounds", "eve-rounds", "eve-protocol", "double-protocol"])
    def test_a_session_builds_only_the_streams_it_reads(self, monkeypatch, session, built):
        calls = []
        stream = parties._stream

        def counted(seed, index):
            calls.append(index)
            return stream(seed, index)

        monkeypatch.setattr(parties, "_stream", counted)
        session()
        assert calls == built

    def test_rounds_are_the_round_stream_looked_up_on_the_joint_law(self):
        # every row is the inverse-CDF lookup of the round stream's own
        # uniforms on the joint law, one draw per round
        attack, seed, n = AttackConfig.alice_double_path(0.5), 9, 5_000
        channel = ChannelConfig(loss_rate=0.2, dark_rate=0.01)
        plan = parties._sampling_plan(attack, channel)
        u = parties._stream(seed, _ROUNDS).random(n)
        rows = run_rounds(n, attack, channel, seed=seed).rounds.row_ids
        np.testing.assert_array_equal(rows, np.searchsorted(plan.cdf, u, side="right"))

    # the block size -1, exact and +1, and a partial fourth block
    @pytest.mark.parametrize(
        "n", [1, _CHUNK_IDS - 1, _CHUNK_IDS, _CHUNK_IDS + 1, 3 * _CHUNK_IDS + 7]
    )
    @pytest.mark.parametrize("attack,channel", [
        (AttackConfig.none(), ChannelConfig()),
        (AttackConfig.eve_probe(0.6), ChannelConfig(loss_rate=0.2, dark_rate=0.01)),
        (AttackConfig.alice_double_path(0.5), ChannelConfig(loss_rate=0.2, dark_rate=0.01)),
    ], ids=["honest", "eve-0.6-lossy", "double-0.5-lossy"])
    def test_block_draws_equal_the_one_shot_draw(self, attack, channel, n):
        rounds = parties._draw_rounds(n, attack, channel, seed=13)
        assert rounds.row_ids.dtype == np.int16
        np.testing.assert_array_equal(rounds.row_ids, one_shot_draw(n, attack, channel, 13))

    def test_disclosed_sample_is_the_sampler_streams_choice(self):
        n, f, seed = 3_000, 0.25, 4
        expected = np.random.SeedSequence(seed).spawn(3)[_SAMPLER]
        ids = np.random.Generator(np.random.PCG64(expected)).choice(n, int(n * f), replace=False)
        sampled = run_protocol(n, f, seed=seed).rounds.sampled
        np.testing.assert_array_equal(np.flatnonzero(sampled), np.sort(ids))


_LOSSY = ChannelConfig(loss_rate=0.2, dark_rate=0.01)

_PINNED_EVE = [
    (
        lambda: run_rounds(20_000, AttackConfig.eve_probe(0.3), _LOSSY, seed=2),
        None,
        2_179,
        "a567fec43edb6d63f1701558f273572f174f725b12f1a7a63f0c350ad18d6268",
    ),
    (
        lambda: run_protocol(20_000, 0.25, AttackConfig.eve_probe(0.2), seed=3),
        "KeyProduced",
        1_933,
        "d270d4ca627357d883d7bd42acde80ae7bac5b5f3f2ae9b371394e27fc0b846c",
    ),
    (
        lambda: run_protocol(20_000, 0.25, AttackConfig.eve_probe(0.3), seed=2, channel_cfg=_LOSSY),
        "KeyProduced",
        1_630,
        "ded14f7e51db6b7b20947b217be4111518d110af4d67762fb9b631d1cf31e3d2",
    ),
    (
        lambda: run_protocol(20_000, 0.25, AttackConfig.eve_probe(0.6), seed=4),
        "Aborted(visibility,errorRate)",
        0,
        hashlib.sha256().hexdigest(),
    ),
]


@pytest.mark.parametrize(
    "session,verdict,count,sha", _PINNED_EVE,
    ids=["rounds-eve-0.3-lossy", "protocol-eve-0.2", "protocol-eve-0.3-lossy", "protocol-eve-0.6"],
)
def test_eve_columns_are_pinned(session, verdict, count, sha):
    """Eve's columns are those of the recorded runs: the sha256 of her
    round ids as ``<i8``, then her guesses and the shared bits as ``i1``.
    So a change to how her rounds are picked cannot change her stream
    unnoticed.  A deliberate change to Eve's stream updates these
    constants, and its change record names it."""
    result = session()
    eve = result.eve_records
    if verdict is not None:
        assert str(result.verdict) == verdict
    digest = hashlib.sha256(eve.round_ids.astype("<i8").tobytes())
    digest.update(eve.guesses.astype("i1").tobytes())
    digest.update(eve.true_bits.astype("i1").tobytes())
    assert (len(eve), digest.hexdigest()) == (count, sha)


def test_sessions_are_pinned():
    """Every ``SCAN`` and ``DEFECT_SCAN`` point's sessions at seeds 1-3 are
    those of the recorded runs: one sha256 over each session's verdict,
    keys, key ids as ``<i8``, transcript bytes, key-id line, and Eve's round
    ids as ``<i8`` with her guesses and shared bits as ``i1``.  So a change
    to how a session is held or written cannot change one unnoticed.  A
    deliberate change to the draws updates this constant, and its change
    record names it."""
    workloads = load_workloads()
    digest = hashlib.sha256()
    for point in (*workloads.SCAN, *workloads.DEFECT_SCAN):
        for seed in (1, 2, 3):
            t = run_protocol(5_000, 0.25, point.attack, seed, channel_cfg=point.channel)
            eve = t.eve_records
            digest.update(str(t.verdict).encode())
            digest.update(t.key_bob)
            digest.update(t.key_charlie)
            digest.update(t.key_round_ids.astype("<i8").tobytes())
            for chunk in (*transcript_chunks(t.rounds), *joined_decimal(t.key_round_ids)):
                digest.update(chunk.tobytes())
            digest.update(eve.round_ids.astype("<i8").tobytes())
            digest.update(eve.guesses.astype("i1").tobytes())
            digest.update(eve.true_bits.astype("i1").tobytes())
    assert digest.hexdigest() == "2c3814cafec1fd8ce06c7b88275137d1e4f6a88078f1f7e44da6c6039de8dc67"


def test_eve_measures_the_probed_d1_rounds_nobody_disclosed():
    # a keyed session's Eve holds the key rounds her probe reached, an
    # aborted one's nothing, and a statistics run's every probed D1 round;
    # on the lossy Eve points dark D1 clicks on absorbed rounds are D1 rows
    # with no probe, so the filter drops key rounds there
    workloads = load_workloads()
    dropped = 0
    for n, seeds in ((5_000, range(1, 11)), (3 * _CHUNK_IDS + 7, (1,))):
        for point in (*workloads.SCAN, *workloads.DEFECT_SCAN):
            for seed in seeds:
                where = (n, point.label, seed)
                t = run_protocol(n, 0.25, point.attack, seed, channel_cfg=point.channel)
                layout = t.rounds.layout
                probe = layout.probe.take(t.rounds.row_ids)
                if not t.verdict.key_produced:
                    assert len(t.key_round_ids) == 0, where
                expected = t.key_round_ids[probe.take(t.key_round_ids)]
                dropped += len(t.key_round_ids) - len(expected)
                r = run_rounds(n, point.attack, point.channel, seed)
                d1 = layout.d1.take(r.rounds.row_ids)
                probed = np.flatnonzero(d1 & layout.probe.take(r.rounds.row_ids))
                for eve, rows, ids in (
                    (t.eve_records, t.rounds.row_ids, expected),
                    (r.eve_records, r.rounds.row_ids, probed),
                ):
                    np.testing.assert_array_equal(eve.round_ids, ids, err_msg=str(where))
                    bits = layout.sifted_bit.take(rows.take(ids))
                    np.testing.assert_array_equal(eve.true_bits, bits, err_msg=str(where))
    assert dropped > 0


class TestRoundSerialization:
    def test_line_round_trip(self):
        record = RoundRecord(
            round_id=12,
            setting_b=Action.A,
            setting_c=Action.F,
            outcome_alice=Outcome.D1,
            click_b=False,
            click_c=True,
            multi_count=False,
            sampled=False,
            sifted_bit=0,
        )
        assert line_to_round(round_to_line(record)) == record

    def test_missing_bit_serializes_as_dash(self):
        record = _record(3, Action.F, Action.F, Outcome.D2)
        line = round_to_line(record)
        assert line.endswith(" -")
        assert line_to_round(line) == record

    def test_rejects_malformed_line(self):
        with pytest.raises(ValueError):
            line_to_round("1 2 3")


class TestRoundTable:
    def test_records_round_trip_through_a_table(self):
        records = [
            _record(0, Action.A, Action.F, Outcome.D1, sampled=True),
            _record(1, Action.F, Action.F, Outcome.D2, sampled=True),
            _record(2, Action.A, Action.F, Outcome.D1),
            _record(3, Action.F, Action.F, Outcome.D1),
        ]
        table = table_from_records(records)
        assert len(table) == 4 and len(table.cells) == 3
        assert list(table) == records
        # in a keyed table the unsampled D1 round on anti-correlated
        # settings carries its bit; the correlated one carries none
        records[2].sifted_bit = 0
        assert list(table_from_records(records, keyed=True)) == records

    def test_session_rounds_iterate_as_records(self, honest):
        records = list(honest.rounds)
        assert len(records) == len(honest.rounds) == 20_000
        assert [r.round_id for r in records] == list(range(20_000))
        assert transcript_lines(honest) == [round_to_line(r) for r in records]


def _line_bytes(rounds):
    """The transcript format, one ``round_to_line`` at a time."""
    return "".join(round_to_line(r) + "\n" for r in rounds).encode()


def _written(rounds):
    chunks = [bytes(chunk) for chunk in transcript_chunks(rounds)]
    assert all(chunk.count(b"\n") <= _CHUNK_IDS for chunk in chunks)
    return b"".join(chunks)


class TestTranscriptBytes:
    @pytest.mark.parametrize("session", list(FORMAT_SESSIONS))
    # ids 0 .. n - 1: the chunk size -1, exact and +1, and every digit
    # count from one to six
    @pytest.mark.parametrize("n", [_CHUNK_IDS - 1, _CHUNK_IDS, _CHUNK_IDS + 1, 100_001])
    def test_session_bytes_equal_the_line_format(self, session, n):
        attack, channel = FORMAT_SESSIONS[session]
        transcript = run_protocol(n, 0.25, attack, seed=5, channel_cfg=channel)
        keyed = session in ("honest", "eve-0.3-lossy")
        assert transcript.verdict.key_produced == keyed
        assert _written(transcript.rounds) == _line_bytes(transcript.rounds)

    # every digit count from one to six on both sides of its power of ten,
    # the multiples of 10**4 and the block size -1, exact and +1
    @pytest.mark.parametrize("n", [
        1, 9, 10, 11, 99, 100, 101, 9_999, 10_000, 10_001,
        _CHUNK_IDS - 1, _CHUNK_IDS, _CHUNK_IDS + 1, 100_001,
    ])
    def test_positions_write_like_explicit_ids(self, n):
        # any rows and samples, keyed or not, write as their records' lines
        rng = np.random.default_rng(n)
        channel = ChannelConfig(loss_rate=0.2, dark_rate=0.01)
        layout = parties._sampling_plan(AttackConfig.eve_probe(0.3), channel).layout
        sampled = rng.random(n) < 0.25
        rows = rng.integers(0, len(layout.cells), n).astype(np.int16)
        for keyed in (False, True):
            table = RoundTable(rows, layout, sampled, keyed)
            assert [r.round_id for r in table] == list(range(n))
            assert _written(table) == _line_bytes(table), keyed

    @pytest.mark.parametrize(
        "ids",
        [
            [],
            [0],
            [0, 7],
            [0, 9, 10, 99_999, 123_456_789],
            list(range(_CHUNK_IDS + 1)),
        ],
        ids=["empty", "zero", "two", "digit-counts", "chunk-plus-one"],
    )
    def test_key_round_ids_join_with_commas(self, ids):
        chunks = joined_decimal(np.array(ids, dtype=np.int64))
        joined = b"".join(bytes(chunk) for chunk in chunks)
        assert joined == ",".join(map(str, ids)).encode()

    @settings(max_examples=300, deadline=None)
    @given(
        ids=st.lists(
            st.one_of(
                st.integers(0, 10**5),
                st.integers(0, 2**63 - 1),
                st.sampled_from([9, 10, 9_999, 10**4, 10**18 - 1, 10**18, 2**63 - 1]),
            ),
            max_size=40,
        ),
        chunk_ids=st.integers(1, 6),
    )
    def test_formatter_equals_python_decimal(self, ids, chunk_ids):
        ids = sorted(ids)
        with mock.patch.object(parties, "_CHUNK_IDS", chunk_ids):
            chunks = list(joined_decimal(np.array(ids, dtype=np.int64)))
        assert all(c.flags.c_contiguous and bytes(c).count(b",") <= chunk_ids for c in chunks)
        assert b"".join(bytes(chunk) for chunk in chunks) == ",".join(map(str, ids)).encode()


def _traced_peak(session) -> int:
    """The tracemalloc peak of a session, in bytes, after one untraced run
    has filled the law caches."""
    session()
    tracemalloc.start()
    try:
        session()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _simulate_eve():
    result = run_rounds(100_000, AttackConfig.eve_probe(0.3), seed=3)
    metrics.compute_merit_report(result.rounds, result.rounds, 100_000)
    adversary.empirical_mutual_information(result.eve_records)


class TestWorkingSet:
    """A 1e5-round session holds its columns, 0.29 MiB of int16 row ids
    and bool sampled flags, plus one block of rounds at a time.
    ``run_protocol`` also holds ``Generator.choice``'s internal ``arange(n)``
    (0.76 MiB of int64) and its draw while it marks the sample; Eve's
    columns and the key take what is left of each budget."""

    @pytest.mark.parametrize("session,budget_mib", [
        (lambda: run_protocol(100_000, 0.25, seed=1), 1.5),
        (lambda: run_protocol(
            100_000, 0.25, AttackConfig.eve_probe(0.3), seed=1,
            channel_cfg=ChannelConfig(loss_rate=0.2, dark_rate=0.01),
        ), 1.8),
        (_simulate_eve, 1.0),
    ], ids=["protocol-honest", "protocol-eve-0.3-lossy", "simulate-eve"])
    def test_session_peak_stays_within_budget(self, session, budget_mib):
        assert _traced_peak(session) <= budget_mib * 2**20


def _eager_replay(transcript):
    """The packet log as the session sends it, one packet at a time, each
    (origin, destination) pair numbering its own packets."""
    alice, bob, charlie = PartyId.ALICE, PartyId.BOB, PartyId.CHARLIE
    control = BodyType.CONTROL
    numbers: dict[tuple, int] = {}
    packets = []

    def send(origin, destination, body_type, body):
        number = numbers.get((origin, destination), 0)
        numbers[(origin, destination)] = number + 1
        packets.append(HybridPacket(number, origin, destination, body_type, body))

    send(charlie, alice, control, control_body(ControlOp.REQUEST))
    send(alice, charlie, control, control_body(ControlOp.ACK))
    send(alice, bob, control, control_body(ControlOp.INTIMATE))
    send(bob, alice, control, control_body(ControlOp.CONSENT))
    rounds = list(transcript.rounds)
    for r in rounds:
        slot = quantum_slot_body(r.round_id)
        send(alice, bob, BodyType.QUANTUM_SLOT, slot)
        send(alice, charlie, BodyType.QUANTUM_SLOT, slot)
        announcement = announce_body(r.round_id, r.outcome_alice, r.multi_count)
        send(alice, bob, BodyType.ANNOUNCE, announcement)
        send(alice, charlie, BodyType.ANNOUNCE, announcement)
    sampled_ids = [r.round_id for r in rounds if r.sampled]
    for start in range(0, len(sampled_ids), 8000):
        payload = b"".join(struct.pack(">Q", i) for i in sampled_ids[start : start + 8000])
        send(bob, charlie, control, control_body(ControlOp.SAMPLE, payload))
    send(charlie, bob, control, control_body(ControlOp.SAMPLE_OK))
    for i in sampled_ids:
        r = rounds[i]
        send(bob, charlie, BodyType.DISCLOSE, disclose_body(i, r.setting_b, r.click_b))
        send(charlie, bob, BodyType.DISCLOSE, disclose_body(i, r.setting_c, r.click_c))
    return packets


STREAM_N, STREAM_F = 10_000, 0.85
STREAM_SESSIONS = {
    "honest": (AttackConfig.none(), ChannelConfig()),
    "eve-0.3-lossy": (AttackConfig.eve_probe(0.3), ChannelConfig(loss_rate=0.2, dark_rate=0.01)),
    "double-1.0": (AttackConfig.alice_double_path(1.0), ChannelConfig()),
}


@pytest.fixture(scope="module", params=list(STREAM_SESSIONS))
def streamed(request):
    attack, channel = STREAM_SESSIONS[request.param]
    # 8,500 sampled rounds: the sample ids take two packets
    return run_protocol(STREAM_N, STREAM_F, attack, seed=23, channel_cfg=channel)


class TestPacketStream:
    def test_length_is_the_closed_form(self, streamed):
        n, s = len(streamed.rounds), int(STREAM_N * STREAM_F)
        expected = 4 + 4 * n + math.ceil(s / 8000) + 1 + 2 * s
        assert len(streamed.packets) == expected == sum(1 for _ in streamed.packets)

    def test_iterating_twice_gives_equal_streams(self, streamed):
        assert list(streamed.packets) == list(streamed.packets)

    def test_stream_equals_the_eager_send_order(self, streamed):
        assert list(streamed.packets) == _eager_replay(streamed)

    def test_announcements_carry_outcome_and_multi_flag(self, streamed):
        rounds = list(streamed.rounds)
        announced = 0
        for packet in streamed.packets:
            if packet.body_type is BodyType.ANNOUNCE:
                r = rounds[struct.unpack(">Q", packet.body[:8])[0]]
                assert packet.body[8:] == r.outcome_alice.value.encode() + bytes([r.multi_count])
                announced += 1
        assert announced == 2 * len(rounds)

    def test_disclosures_are_the_sampled_settings_and_clicks(self, streamed):
        disclosed = [
            (p.origin, struct.unpack(">Q", p.body[:8])[0], Action(p.body[8:9].decode()), p.body[9])
            for p in streamed.packets
            if p.body_type is BodyType.DISCLOSE
        ]
        expected = []
        for r in streamed.rounds:
            if r.sampled:
                expected.append((PartyId.BOB, r.round_id, r.setting_b, int(r.click_b)))
                expected.append((PartyId.CHARLIE, r.round_id, r.setting_c, int(r.click_c)))
        assert disclosed == expected
