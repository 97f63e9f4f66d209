"""A protocol session, the hybrid packet codec, and transcripts.

A session runs between a source station (Alice) that emits and announces,
and two receiving stations (Bob, Charlie) that pick a per-round setting,
report their detector read-outs on sampled rounds, and sift a shared key
from the D1 announcements.  Classical control traffic and the per-round
quantum slots ride in a common packet format with a fixed header, a typed
body, and a terminator-plus-checksum footer.

Rounds are drawn in bulk from the exact per-round outcome law
(``law.outcome_law``), laid out once per (attack, channel) pair as one
joint CDF over its rows.  Each round is one 64-bit draw from the session's
round stream looked up on that CDF, so its settings, source-attack flag
and outcome come together.
A run holds its rounds as columns (``RoundTable``): each round's row of
that law's ``CellLayout`` and its sampled flag.  A round's id is its
position, and its sifted bit follows from its row, its flag and whether
the session released keys.  Eve's guesses are columns too
(``adversary.EveGuesses``).  The packet log is derived from the columns
when it is read (``PacketStream``).  Every pass over the rounds works a
block of ``_CHUNK_IDS`` of them at a time, so a session's working set is
its columns plus one block.

Every public announcement covers every round (including NULL outcomes);
disclosure of settings and station read-outs happens only for the jointly
sampled test fraction.  Key bits derive from each station's own setting
plus the announcement alone, so the keys are reconstructible from a
censored transcript.
"""

from __future__ import annotations

import functools
import struct
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Sequence

import numpy as np

from . import metrics
from .adversary import EveGuesses
from .channel import AttackConfig, ChannelConfig
from .law import _LAW_CACHE_SIZE, Cell, _weighted_rows
from .photonics import Action, Outcome

MAGIC = b"\xc1\xca"
VERSION = 1
TERMINATOR = 0x03  # two terminator bits, padded into one octet
_HEADER_LEN = 12
_FOOTER_LEN = 2


class PartyId(Enum):
    ALICE = 1
    BOB = 2
    CHARLIE = 3
    EVE = 4  # never a legal packet endpoint


_WIRE_PARTIES = {PartyId.ALICE, PartyId.BOB, PartyId.CHARLIE}


class BodyType(Enum):
    QUANTUM_SLOT = 1
    CONTROL = 2
    ANNOUNCE = 3
    DISCLOSE = 4


class ControlOp(Enum):
    REQUEST = 1
    ACK = 2
    INTIMATE = 3
    CONSENT = 4
    SAMPLE = 5
    SAMPLE_OK = 6


class MalformedPacket(ValueError):
    def __init__(self, reason: str):
        self.reason = reason
        super().__init__(reason)


@dataclass(frozen=True, slots=True)
class HybridPacket:
    """Decoded packet.  Wire-only fields (magic, body length, terminator,
    checksum) are produced and verified by the codec."""

    packet_number: int
    origin: PartyId
    destination: PartyId
    body_type: BodyType
    body: bytes


def _xor_checksum(body: bytes) -> int:
    value = 0
    for b in body:
        value ^= b
    return value


def encode_packet(packet: HybridPacket) -> bytes:
    if packet.origin not in _WIRE_PARTIES or packet.destination not in _WIRE_PARTIES:
        raise ValueError("packet endpoints must be Alice, Bob, or Charlie")
    if len(packet.body) > 0xFFFF:
        raise ValueError("body exceeds the 16-bit length field")
    if not 0 <= packet.packet_number <= 0xFFFFFFFF:
        raise ValueError("packet number exceeds 32 bits")
    header = MAGIC + struct.pack(
        ">BIBBHB",
        VERSION,
        packet.packet_number,
        packet.origin.value,
        packet.destination.value,
        len(packet.body),
        packet.body_type.value,
    )
    footer = bytes([TERMINATOR, _xor_checksum(packet.body)])
    return header + packet.body + footer


def decode_packet(data: bytes) -> HybridPacket:
    if len(data) < _HEADER_LEN + _FOOTER_LEN:
        raise MalformedPacket("truncated")
    if data[:2] != MAGIC:
        raise MalformedPacket("bad magic")
    version, number, origin, destination, body_len, body_type = struct.unpack(
        ">BIBBHB", data[2:_HEADER_LEN]
    )
    if version != VERSION:
        raise MalformedPacket(f"unsupported version {version}")
    expected = _HEADER_LEN + body_len + _FOOTER_LEN
    if len(data) < expected:
        raise MalformedPacket("truncated")
    if len(data) > expected:
        raise MalformedPacket("trailing bytes")
    try:
        origin_id = PartyId(origin)
        destination_id = PartyId(destination)
    except ValueError:
        raise MalformedPacket("unknown party code") from None
    if origin_id not in _WIRE_PARTIES or destination_id not in _WIRE_PARTIES:
        raise MalformedPacket("illegal party on the wire")
    try:
        kind = BodyType(body_type)
    except ValueError:
        raise MalformedPacket(f"unknown body type {body_type}") from None
    body = data[_HEADER_LEN : _HEADER_LEN + body_len]
    terminator, checksum = data[expected - 2], data[expected - 1]
    if terminator != TERMINATOR:
        raise MalformedPacket("bad terminator")
    if checksum != _xor_checksum(body):
        raise MalformedPacket("bad checksum")
    return HybridPacket(number, origin_id, destination_id, kind, body)


def quantum_slot_body(round_id: int) -> bytes:
    return struct.pack(">Q", round_id)


def announce_body(round_id: int, outcome: Outcome, multi_count: bool) -> bytes:
    return struct.pack(">Q", round_id) + outcome.value.encode() + bytes([int(multi_count)])


def disclose_body(round_id: int, setting: Action, clicked: bool) -> bytes:
    return struct.pack(">Q", round_id) + setting.value.encode() + bytes([int(clicked)])


def control_body(op: ControlOp, payload: bytes = b"") -> bytes:
    return bytes([op.value]) + payload


#: Rounds per block of every per-round pass: the draw, the counts, the key
#: positions and the transcript.  Bounds what a pass holds beside the columns.
_CHUNK_IDS = 1 << 14


def _blocks(n: int) -> Iterator[slice]:
    """Slices of at most ``_CHUNK_IDS`` positions covering 0 .. n - 1, in order."""
    size = _CHUNK_IDS
    for start in range(0, n, size):
        yield slice(start, min(start + size, n))


@dataclass(slots=True)
class RoundRecord:
    """One protocol round as the stations can reconstruct it afterwards."""

    round_id: int
    setting_b: Action
    setting_c: Action
    outcome_alice: Outcome
    click_b: bool
    click_c: bool
    multi_count: bool
    sampled: bool = False
    sifted_bit: int | None = None


@dataclass(frozen=True, slots=True, eq=False)
class CellLayout:
    """The contingency cells a run can produce, and what each row of them
    implies, derived once per layout and read-only: the merit tallies each
    row counts toward (``metrics.tally_matrix``), whether it announces D1,
    the key bit Bob and Charlie take from it (Bob: A -> 0, F -> 1; Charlie:
    F -> 0, A -> 1), the sifted bit as their common bit ((A,F) -> 0, (F,A)
    -> 1, -1 on correlated settings), and Eve's P(guess 1) on it (``p_one``,
    NaN where she holds no probe), whose probed rows ``probe`` marks."""

    cells: tuple[Cell, ...]
    tallies: np.ndarray
    d1: np.ndarray
    bit_b: np.ndarray
    bit_c: np.ndarray
    sifted_bit: np.ndarray
    p_one: np.ndarray
    probe: np.ndarray

    @classmethod
    def of(cls, cells: Sequence[Cell], p_one: Sequence[float | None]) -> CellLayout:
        def column(values, dtype) -> np.ndarray:
            array = np.array(values, dtype=dtype)
            array.flags.writeable = False
            return array

        bit_b = column([setting_b is Action.F for setting_b, *_ in cells], np.int8)
        bit_c = column([setting_c is Action.A for _, setting_c, *_ in cells], np.int8)
        eve = column(p_one, float)  # None becomes NaN
        return cls(
            tuple(cells),
            metrics.tally_matrix(cells),
            column([outcome is Outcome.D1 for _, _, outcome, *_ in cells], bool),
            bit_b,
            bit_c,
            column(np.where(bit_b == bit_c, bit_b, -1), np.int8),
            eve,
            column(~np.isnan(eve), bool),
        )


def _round_kinds(layout: CellLayout, keyed: bool) -> list[tuple]:
    """A ``RoundRecord``'s fields after its id for each code 2 * row +
    sampled: the row's cell, the flag, and the row's sifted bit, which only
    an unsampled D1 round of a keyed session carries, and only on
    anti-correlated settings."""
    kinds = []
    for cell, d1, bit in zip(layout.cells, layout.d1.tolist(), layout.sifted_bit.tolist()):
        bit = bit if keyed and d1 and bit >= 0 else None
        kinds += [(*cell, False, bit), (*cell, True, None)]
    return kinds


@dataclass(frozen=True, slots=True, eq=False)
class RoundTable:
    """A run's rounds as columns; a round's id is its position.

    ``row_ids`` gives each round's row in ``layout``, the few contingency
    cells the run can produce, and ``sampled`` its sampled flag.  ``keyed``
    marks a session that released keys: there each unsampled D1 round
    carries its row's ``layout.sifted_bit``, none where that is -1
    (correlated settings).  Iterating yields one ``RoundRecord`` per round.
    """

    row_ids: np.ndarray
    layout: CellLayout
    sampled: np.ndarray
    keyed: bool = False

    @property
    def cells(self) -> tuple[Cell, ...]:
        return self.layout.cells

    def __len__(self) -> int:
        return len(self.row_ids)

    def __iter__(self) -> Iterator[RoundRecord]:
        kinds = _round_kinds(self.layout, self.keyed)
        for round_id, code in enumerate(self.codes(slice(None)).tolist()):
            yield RoundRecord(round_id, *kinds[code])

    def codes(self, block: slice) -> np.ndarray:
        """Each round's code 2 * row + sampled over a block, int16 like the
        row ids: at most 2 * cells - 1."""
        codes = self.row_ids[block] << 1
        codes |= self.sampled[block]
        return codes

    def row_counts(self) -> np.ndarray:
        """The number of rounds on each row of the layout, counted a block
        at a time: ``bincount`` widens the row ids it counts to intp."""
        counts = np.zeros(len(self.cells), dtype=np.intp)
        for block in _blocks(len(self)):
            counts += np.bincount(self.row_ids[block], minlength=len(counts))
        return counts


@dataclass(frozen=True, slots=True, eq=False)
class RowCounts:
    """A sample known only by its number of rounds on each row of
    ``layout``, which is all ``metrics.compute_merit_report`` reads of it."""

    layout: CellLayout
    counts: np.ndarray

    def row_counts(self) -> np.ndarray:
        return self.counts


_SAMPLE_IDS_PER_PACKET = 8000


class PacketStream:
    """A session's packet log, derived from its round table on demand.

    Sending order: Charlie's request and Alice's acknowledgement, Alice's
    intimation to Bob and his consent; per round, its quantum slot to Bob
    and to Charlie, then Alice's announcement to each; Bob's sample ids in
    chunks, Charlie's acknowledgement; per sampled round, Bob's and then
    Charlie's disclosure.  Each (origin, destination) pair numbers its
    packets from 0, so every number, and the length, has a closed form.
    """

    __slots__ = ("rounds",)

    def __init__(self, rounds: RoundTable):
        self.rounds = rounds

    def __len__(self) -> int:
        s = int(np.count_nonzero(self.rounds.sampled))
        return 4 + 4 * len(self.rounds) + -(-s // _SAMPLE_IDS_PER_PACKET) + 1 + 2 * s

    def __iter__(self) -> Iterator[HybridPacket]:
        alice, bob, charlie = PartyId.ALICE, PartyId.BOB, PartyId.CHARLIE
        control, disclose = BodyType.CONTROL, BodyType.DISCLOSE
        rounds, cells = self.rounds, self.rounds.cells

        packet = HybridPacket

        yield packet(0, charlie, alice, control, control_body(ControlOp.REQUEST))
        yield packet(0, alice, charlie, control, control_body(ControlOp.ACK))
        yield packet(0, alice, bob, control, control_body(ControlOp.INTIMATE))
        yield packet(0, bob, alice, control, control_body(ControlOp.CONSENT))
        for round_id, row in enumerate(rounds.row_ids.tolist()):
            _, _, outcome, _, _, multi_count = cells[row]
            slot = quantum_slot_body(round_id)
            announcement = announce_body(round_id, outcome, multi_count)
            for number, kind, body in (
                (1 + 2 * round_id, BodyType.QUANTUM_SLOT, slot),
                (2 + 2 * round_id, BodyType.ANNOUNCE, announcement),
            ):
                yield packet(number, alice, bob, kind, body)
                yield packet(number, alice, charlie, kind, body)

        sampled = np.flatnonzero(rounds.sampled)
        chunks = range(0, len(sampled), _SAMPLE_IDS_PER_PACKET)
        for number, start in enumerate(chunks):
            ids = sampled[start : start + _SAMPLE_IDS_PER_PACKET]
            body = control_body(ControlOp.SAMPLE, ids.astype(">u8").tobytes())
            yield packet(number, bob, charlie, control, body)
        yield packet(0, charlie, bob, control, control_body(ControlOp.SAMPLE_OK))
        rows = zip(sampled.tolist(), rounds.row_ids[sampled].tolist())
        for j, (round_id, row) in enumerate(rows):
            setting_b, setting_c, _, click_b, click_c, _ = cells[row]
            body_b = disclose_body(round_id, setting_b, click_b)
            yield packet(len(chunks) + j, bob, charlie, disclose, body_b)
            yield packet(1 + j, charlie, bob, disclose, disclose_body(round_id, setting_c, click_c))


@dataclass(slots=True)
class Transcript:
    rounds: RoundTable
    packets: PacketStream
    verdict: metrics.Verdict
    report: metrics.MeritReport
    key_bob: bytes
    key_charlie: bytes
    key_round_ids: np.ndarray
    eve_records: EveGuesses


@dataclass(slots=True)
class SimulationResult:
    """Statistics-only run: all rounds plus the eavesdropper's records."""

    rounds: RoundTable
    eve_records: EveGuesses


def _key_rounds(rounds: RoundTable) -> tuple[np.ndarray, np.ndarray]:
    """Ascending positions and rows of the unsampled D1 rounds, the key rounds."""
    keyed = np.empty(len(rounds), dtype=bool)
    for block in _blocks(len(rounds)):
        keyed[block] = rounds.layout.d1.take(rounds.row_ids[block]) & ~rounds.sampled[block]
    positions = np.flatnonzero(keyed)
    return positions, rounds.row_ids.take(positions)


def _station_keys(layout: CellLayout, key_rows: np.ndarray) -> tuple[bytes, bytes]:
    """Bob's and Charlie's bit on each key round, given by its row, as one
    byte of 0 or 1 per bit."""
    return layout.bit_b.take(key_rows).tobytes(), layout.bit_c.take(key_rows).tobytes()


def sift_key(rounds: RoundTable) -> tuple[bytes, bytes]:
    """Each station's key from its local view only, one byte of 0 or 1 per
    bit.

    A station keeps every unsampled D1 round and maps its own setting
    through the convention (Bob: A -> 0, F -> 1; Charlie: F -> 0, A -> 1).
    Rounds whose settings were secretly correlated yield mismatched bits,
    surfacing as key errors rather than being discarded.
    """
    return _station_keys(rounds.layout, _key_rounds(rounds)[1])


def _session_counts(rounds: RoundTable) -> tuple[RowCounts, RowCounts]:
    """The disclosed sample's and the whole stream's rounds on each row, from
    one pass over a run's table: each round counts once, under the code
    2 * row + sampled."""
    cells = len(rounds.cells)
    counts = np.zeros(2 * cells, dtype=np.intp)
    for block in _blocks(len(rounds)):
        counts += np.bincount(rounds.codes(block), minlength=2 * cells)
    by_row = counts.reshape(cells, 2)
    return RowCounts(rounds.layout, by_row[:, 1]), RowCounts(rounds.layout, by_row.sum(axis=1))


@dataclass(frozen=True, slots=True)
class _SamplingPlan:
    """What ``_draw_rounds`` reads of one (attack, channel) law, all arrays
    read-only.

    ``cdf`` is a round's joint law as one CDF over the rows of ``layout``,
    each row weighed as in ``law._weighted_rows``.  Guide bucket b holds the
    uniforms in [b, b + 1) / 1024: ``first[b]`` counts the CDF entries at or
    below b / 1024 and ``unsure[b]`` marks one strictly inside.
    """

    cdf: np.ndarray
    first: np.ndarray
    unsure: np.ndarray
    layout: CellLayout


@functools.lru_cache(maxsize=_LAW_CACHE_SIZE)
def _sampling_plan(attack: AttackConfig, channel_cfg: ChannelConfig) -> _SamplingPlan:
    """The law laid out for ``_select_rows``, once per (attack, channel)."""
    cells, weights, p_one = zip(*_weighted_rows(attack, channel_cfg))
    cumulative = np.cumsum(weights)
    cdf = cumulative / cumulative[-1]
    edges = np.arange(1025) / 1024
    first = np.searchsorted(cdf, edges[:-1], side="right").astype(np.int16)
    unsure = np.searchsorted(cdf, edges[1:], side="left") > first
    for array in (cdf, first, unsure):
        array.flags.writeable = False
    return _SamplingPlan(cdf, first, unsure, CellLayout.of(cells, p_one))


def _select_rows(plan: _SamplingPlan, raw: np.ndarray) -> np.ndarray:
    """Each round's row from its raw 64-bit draw: ``np.searchsorted(plan.cdf,
    u, side="right")`` for ``u = (raw >> 11) * 2**-53``, the uniform that
    ``Generator.random`` makes of the same bits.  The top ten bits pick the
    round's guide bucket, whose ``first`` entry is the row; only rounds in
    unsure buckets are searched."""
    bucket = (raw >> 54).view(np.int64)
    rows = plan.first.take(bucket)
    unsure = np.flatnonzero(plan.unsure.take(bucket))
    rows[unsure] = np.searchsorted(plan.cdf, (raw.take(unsure) >> 11) * 2.0**-53, side="right")
    return rows


#: A session's random streams by use: stream i is child i of the session
#: seed's ``SeedSequence``.
_ROUNDS, _EVE, _SAMPLER = range(3)


def _stream(seed: int, index: int) -> np.random.Generator:
    """The session's stream ``index``, built alone: its state is that of
    ``SeedSequence(seed).spawn(3)[index]``.  A session builds only the
    streams it reads."""
    child = np.random.SeedSequence(seed, spawn_key=(index,))
    return np.random.Generator(np.random.PCG64(child))


def _draw_rounds(n: int, attack: AttackConfig, channel_cfg: ChannelConfig, seed: int) -> RoundTable:
    """Draw n rounds in bulk from the outcome law.

    Each round is one raw 64-bit draw from the round stream, looked up on
    the joint law of its settings, source-attack flag and outcome
    (``_select_rows``), so its row carries all three.  The draws come a
    block at a time, in stream order.
    """
    plan = _sampling_plan(attack, channel_cfg)
    random_raw = _stream(seed, _ROUNDS).bit_generator.random_raw
    rows = np.empty(n, dtype=np.int16)
    for block in _blocks(n):
        rows[block] = _select_rows(plan, random_raw(block.stop - block.start))
    return RoundTable(rows, plan.layout, np.zeros(n, dtype=bool))


def _eve_guesses(
    layout: CellLayout, positions: np.ndarray, rows: np.ndarray, seed: int
) -> EveGuesses:
    """Eve's Helstrom guesses on a run's D1 rounds that no station
    disclosed, given by their ascending positions and their rows of
    ``layout``: she measures those whose row carries her probe, one uniform
    each in round order, beside the bit the stations shared.  Her stream is
    built only when she measures a round."""
    probed = layout.probe.take(rows)
    ids, rows = positions[probed], rows[probed]
    uniforms = _stream(seed, _EVE).random(len(ids)) if len(ids) else np.empty(0)
    guesses = (uniforms < layout.p_one.take(rows)).astype(np.int8)
    return EveGuesses(ids, guesses, layout.sifted_bit.take(rows))


def run_rounds(
    n: int,
    attack: AttackConfig = AttackConfig.none(),
    channel_cfg: ChannelConfig = ChannelConfig(),
    seed: int = 0,
) -> SimulationResult:
    """Statistics run: n independent rounds, no packet traffic or sampling.

    Nothing is sampled, so the eavesdropper, when configured, measures
    every D1 round her probe reaches; a law with no probed row makes no
    pass for her.  Rounds are deterministic in (n, attack, channel, seed).
    """
    if n < 1:
        raise ValueError("need at least one round")
    attack.validate()
    channel_cfg.validate()
    rounds = _draw_rounds(n, attack, channel_cfg, seed)
    positions, rows = np.empty(0, dtype=np.intp), np.empty(0, dtype=np.int16)
    if rounds.layout.probe.any():
        positions, rows = _key_rounds(rounds)
    return SimulationResult(rounds, _eve_guesses(rounds.layout, positions, rows, seed))


def run_protocol(
    n: int,
    f: float,
    attack: AttackConfig = AttackConfig.none(),
    seed: int = 0,
    channel_cfg: ChannelConfig = ChannelConfig(),
) -> Transcript:
    """Execute a full session and return its transcript.

    Runs n rounds with per-round announcements, samples floor(n*f) rounds
    for disclosure, estimates the figures of merit from the disclosed
    sample, and either aborts (empty keys, failing figures named) or sifts
    the stations' keys from the unsampled D1 rounds, the rounds Eve
    measures where her probe reached them.  The packet log is derived from
    the rounds when read.  Deterministic in (n, f, attack, channel, seed).
    """
    if n < 1:
        raise ValueError("need at least one round")
    if not 0.0 < f < 1.0:
        raise ValueError("test fraction f must lie in (0, 1)")
    attack.validate()
    channel_cfg.validate()
    rounds = _draw_rounds(n, attack, channel_cfg, seed)
    sampler = _stream(seed, _SAMPLER)
    rounds.sampled[sampler.choice(n, int(n * f), replace=False, shuffle=False)] = True
    report = metrics.compute_merit_report(*_session_counts(rounds), n)
    verdict = metrics.abort_decision(report, channel_cfg)

    key_bob = key_charlie = b""
    key_round_ids, key_rows = np.empty(0, dtype=np.intp), np.empty(0, dtype=np.int16)
    if verdict.key_produced:
        key_round_ids, key_rows = _key_rounds(rounds)
        key_bob, key_charlie = _station_keys(rounds.layout, key_rows)
        rounds = RoundTable(rounds.row_ids, rounds.layout, rounds.sampled, keyed=True)
    return Transcript(
        rounds=rounds,
        packets=PacketStream(rounds),
        verdict=verdict,
        report=report,
        key_bob=key_bob,
        key_charlie=key_charlie,
        key_round_ids=key_round_ids,
        eve_records=_eve_guesses(rounds.layout, key_round_ids, key_rows, seed),
    )


def round_to_line(r: RoundRecord) -> str:
    """Fixed field order, decimal integers and single-character enums."""
    bit = "-" if r.sifted_bit is None else str(r.sifted_bit)
    return (
        f"{r.round_id} {r.setting_b.value} {r.setting_c.value} {r.outcome_alice.value} "
        f"{int(r.click_b)} {int(r.click_c)} {int(r.multi_count)} {int(r.sampled)} {bit}"
    )


def line_to_round(line: str) -> RoundRecord:
    parts = line.split()
    if len(parts) != 9:
        raise ValueError(f"expected 9 fields, got {len(parts)}")
    return RoundRecord(
        round_id=int(parts[0]),
        setting_b=Action(parts[1]),
        setting_c=Action(parts[2]),
        outcome_alice=Outcome(parts[3]),
        click_b=bool(int(parts[4])),
        click_c=bool(int(parts[5])),
        multi_count=bool(int(parts[6])),
        sampled=bool(int(parts[7])),
        sifted_bit=None if parts[8] == "-" else int(parts[8]),
    )


_QUADS = np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1).T + ord("0")
#: ``_DIGITS[g][v]`` is v < 10**g as g zero-padded decimal digits (``S{g}``).
_DIGITS = {g: _QUADS[: 10**g, 4 - g :].copy().view(f"S{g}").ravel() for g in range(1, 5)}


def _fill(rows: np.ndarray, column: int, table: np.ndarray, keys: np.ndarray) -> None:
    """Write ``table[keys]`` into ``rows`` from ``column`` on, one record a row."""
    rows[:, column : column + table.itemsize].view(table.dtype)[:, 0] = table.take(keys)


def _put_ids(rows: np.ndarray, ids: np.ndarray, digits: int) -> None:
    """Write each id, of ``digits`` decimal digits, at the start of its row,
    four digits at a time."""
    for column in range(digits - 4, 0, -4):
        high = ids // 10**4
        _fill(rows, column, _DIGITS[4], ids - high * 10**4)
        ids = high
    _fill(rows, 0, _DIGITS[(digits - 1) % 4 + 1], ids)


def _put_positions(rows: np.ndarray, first: int, digits: int) -> None:
    """Write the ids first, first + 1, ..., each of ``digits`` decimal
    digits, at the start of the rows.  Between multiples of 10**4 the low
    four digits are one slice of ``_DIGITS`` and the digits above them one
    value."""
    low = min(digits, 4)
    stop = first + len(rows)
    edges = [first, *range((first // 10**4 + 1) * 10**4, stop, 10**4), stop]
    for lo, hi in zip(edges, edges[1:]):
        high, offset = divmod(lo, 10**4)
        part = rows[lo - first : hi - first]
        part[:, digits - low : digits].view(f"S{low}")[:, 0] = _DIGITS[low][offset : offset + hi - lo]
        if digits > 4:
            part[:, : digits - 4].view(f"S{digits - 4}")[:, 0] = b"%d" % high


@functools.lru_cache(maxsize=_LAW_CACHE_SIZE)
def _transcript_tails(layout: CellLayout, keyed: bool) -> np.ndarray:
    """A transcript line after its round id, newline excluded, for each code
    2 * row + sampled (``RoundTable.codes``), as a read-only table by code,
    cached per layout.  Every field is one character, so every tail has one
    length: 16 bytes, a native width to gather."""
    tails = [
        round_to_line(RoundRecord(0, *kind)).removeprefix("0").encode()
        for kind in _round_kinds(layout, keyed)
    ]
    return np.frombuffer(b"".join(tails), f"V{len(tails[0])}")


def transcript_chunks(rounds: RoundTable) -> Iterator[np.ndarray]:
    """``round_to_line`` of every round plus a newline, as uint8 arrays of
    one line a row, from blocks of at most ``_CHUNK_IDS`` lines.

    The ids are the positions, so a block splits into runs of one digit
    count at powers of ten alone; a run's digits are written from slices
    (``_put_positions``), its tails are one take from the table of tails,
    and its newlines are one constant column.
    """
    tails = _transcript_tails(rounds.layout, rounds.keyed)
    length = tails.itemsize + 1
    n = len(rounds)
    powers = [10**k for k in range(1, len(str(n)))]
    for block in _blocks(n):
        codes = rounds.codes(block)
        edges = [block.start, *(p for p in powers if block.start < p < block.stop), block.stop]
        for lo, hi in zip(edges, edges[1:]):
            digits = len(str(lo))
            rows = np.empty((hi - lo, digits + length), dtype=np.uint8)
            _put_positions(rows, lo, digits)
            _fill(rows, digits, tails, codes[lo - block.start : hi - block.start])
            rows[:, -1] = ord("\n")
            yield rows


def transcript_lines(transcript: Transcript) -> list[str]:
    """``round_to_line`` of every round, decoded from ``transcript_chunks``."""
    return b"".join(transcript_chunks(transcript.rounds)).decode("ascii").splitlines()


#: 10**1 .. 10**18: an int64's digit count is one plus the powers it reaches.
_POWERS = 10 ** np.arange(1, 19, dtype=np.int64)


def joined_decimal(ids: np.ndarray) -> Iterator[np.ndarray]:
    """``",".join`` of ascending non-negative int64 ids in decimal, as uint8
    chunks.  Each block of at most ``_CHUNK_IDS`` ids splits into runs of
    one digit count where its ids reach a power of ten, found by
    ``np.searchsorted``; each id is written with a trailing comma, and the
    final chunk drops the last one."""
    for block in _blocks(len(ids)):
        chunk = ids[block]
        edges = [0, *np.searchsorted(chunk, _POWERS).tolist(), len(chunk)]
        for digits, (lo, hi) in enumerate(zip(edges, edges[1:]), 1):
            if lo == hi:
                continue
            rows = np.empty((hi - lo, digits + 1), dtype=np.uint8)
            _put_ids(rows, chunk[lo:hi], digits)
            rows[:, digits] = ord(",")
            yield rows.ravel()[: -1 if block.start + hi == len(ids) else None]


def key_to_hex(bits: bytes | Sequence[int]) -> str:
    """Bits, as ``bytes`` or ints of 0 or 1, packed most-significant first,
    zero-padded to whole octets."""
    return np.packbits(np.frombuffer(bytes(bits), dtype=np.uint8)).tobytes().hex()
