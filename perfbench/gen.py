"""Seeded generator of the benchmark's inputs.

One seed gives byte-identical files:

``corpus.jsonl`` + ``corpus.gold.jsonl``
    The narratives and their gold sidecar (attached by ``load_corpus``).
``fixtures.jsonl``
    Mock-backend fixtures for the hybrid corpus, built only with the public
    prompt builders and ``fixture_entry``/``write_fixture_file``. The
    localhost stub server answers from the same table.
``expect.jsonl``
    What the fixtures make the pipeline do, per narrative: the surfaces
    that must end up inside a tag, the distractors that must stay
    untagged and the audit decisions. A narrative whose text already holds
    a delimiter may be refused; ``if_emitted`` is then its only correct
    redacted text (rule-owned phone and email tagged), else null.
    ``check.py`` reads it without importing crashdeid.
``faults.json``
    The number of requests the stub prefix makes when none fails, and the
    request keys among them that get one HTTP 500 on their first attempt.

The hybrid corpus is built in blocks of ``STUB_NARRATIVES`` with an exact
fixture mix per block, so the stub workload's prefix (the first block) has
the same mix as the whole mock corpus.
"""

from __future__ import annotations

import json
import random
from dataclasses import replace
from pathlib import Path

import check
from crashdeid.gateway import (
    build_extraction_prompt,
    build_verifier_prompt,
    fixture_entry,
    write_fixture_file,
)
from crashdeid.verify import (
    VerifierFormatError,
    parse_verifier_output,
    repair_user_content,
)

K_RUNS = 5
STUB_NARRATIVES = 60
MOCK_BLOCKS = 5
MOCK_NARRATIVES = STUB_NARRATIVES * MOCK_BLOCKS
LONG_NARRATIVES = 300
FAULT_SHARE = 0.01  # synthetic: enough 500s to exercise the retry path

# Exact mix per block of STUB_NARRATIVES hybrid narratives. The shares are
# synthetic, picked so that every extractor and verifier branch runs in each
# block. The first two are exclusive kinds; the rest are flags over the
# remaining narratives.
BLOCK_DELIMITED = 1      # text holds a delimiter: LLM channel skipped
BLOCK_PLAIN = 6          # no ambiguous candidate: verifier short-circuits
BLOCK_REPAIR = 9         # first verifier answer invalid, one repair
BLOCK_DEMOTE = 6         # a KEEP whose evidence is not verbatim
BLOCK_HALLUCINATED = 18  # one of runs 2..K rewrites the text

NAME, PHONE, EMAIL, HOME, ALNUM = (
    "name", "phone", "email", "home_address", "alphanumeric",
)
DELIMITERS = {category: delimiter for delimiter, category in check.DELIMITERS.items()}

FIRST = ["JOHN", "MARIA", "DAVID", "LINDA", "JAMES", "SUSAN", "ROBERT", "KAREN",
         "MICHAEL", "NANCY", "CARLOS", "AISHA", "WEI", "PRIYA", "OMAR", "ELENA"]
LAST = ["SMITH", "GARCIA", "JOHNSON", "NGUYEN", "BROWN", "PATEL", "MILLER",
        "DAVIS", "LOPEZ", "WILSON", "ANDERSON", "THOMAS", "MOORE", "JACKSON"]
HOME_STREETS = ["ELM STREET", "OAK AVENUE", "MAPLE DRIVE", "CEDAR LANE",
                "PINE COURT", "BIRCH ROAD", "WILLOW WAY", "ASPEN CIRCLE"]
CITIES = ["MADISON", "JANESVILLE", "BELOIT", "MONROE", "VERONA", "STOUGHTON"]
CRASH_ROADS = ["HIGHWAY 47", "COUNTY ROAD K", "STATE ROUTE 12", "HIGHWAY 14"]
CROSS_ROADS = ["MILL RD", "DEPOT ST", "RIVER RD", "CENTER ST", "LAKE RD"]
DOMAINS = ["example.org", "mail.example.com", "county.example.gov",
           "webmail.example.net"]
DIRECTIONS = ["NB", "SB", "EB", "WB"]
FILLER = [
    "WEATHER WAS CLEAR AND THE ROAD SURFACE WAS DRY.",
    "NO INJURIES WERE REPORTED AT THE SCENE.",
    "BOTH VEHICLES WERE TOWED FROM THE SCENE.",
    "UNIT 2 SUSTAINED DAMAGE TO THE REAR BUMPER.",
    "AIRBAGS DID NOT DEPLOY IN EITHER UNIT.",
    "THE SIGNAL AT THE INTERSECTION WAS FUNCTIONING.",
    "DRIVER 2 WAS CITED FOR FAILURE TO YIELD.",
    "TRAFFIC WAS LIGHT AT THE TIME OF THE CRASH.",
]


def _digits(rng: random.Random, n: int) -> str:
    return "".join(rng.choice("0123456789") for _ in range(n))


def _letters(rng: random.Random, n: int) -> str:
    return "".join(rng.choice("ABCDEFGHJKLMNPRSTUVWXYZ") for _ in range(n))


def _area(rng: random.Random) -> str:
    return str(rng.randint(2, 9)) + _digits(rng, 2)


def _phone(rng: random.Random) -> str:
    """A phone the strict U.S. grammar accepts, in one of its forms."""
    a, e, line = _area(rng), _area(rng), _digits(rng, 4)
    return rng.choice([
        f"({a}) {e}-{line}",
        f"{a}-{e}-{line}",
        f"{a}.{e}.{line}",
        f"{a}{e}{line}",
        f"+1 {a} {e} {line}",
        f"1-{a}-{e}-{line}",
    ])


def _near_miss_phone(rng: random.Random) -> str:
    """A phone-shaped token the strict grammar rejects."""
    a, e, line = _area(rng), _area(rng), _digits(rng, 4)
    return rng.choice([
        f"1{_digits(rng, 2)}-{e}-{line}",       # area starts with 1
        f"0{_digits(rng, 2)}-{e}-{line}",       # area starts with 0
        f"{a}-1{_digits(rng, 2)}-{line}",       # exchange starts with 1
        f"{a}.{e}-{line}",                      # mixed separators
        f"{a}-{e}-{line}{_digits(rng, 1)}",     # five-digit line
        f"ID{a}{e}{line}",                      # bare, letter-adjacent
        f"{e}-{line}",                          # seven digits
        f"{a} {e}-{line}",                      # mixed separators
    ])


def _email(rng: random.Random, first: str, last: str) -> str:
    return f"{first[0].lower()}{last.lower()}{rng.randint(10, 99)}@{rng.choice(DOMAINS)}"


def _tag(text: str, picks: list[tuple[str, str]]) -> str:
    """Wrap the first occurrence of each (category, surface) in its delimiters."""
    placed = sorted((text.index(surface), surface, category) for category, surface in picks)
    parts, cursor = [], 0
    for start, surface, category in placed:
        assert start >= cursor, "generator tagged overlapping surfaces"
        delim = DELIMITERS[category]
        parts += [text[cursor:start], delim, surface, delim]
        cursor = start + len(surface)
    parts.append(text[cursor:])
    return "".join(parts)


def _hybrid_narrative(rng: random.Random, nid: str, kind: str, flags: set[str]):
    """One ~500-char narrative with its fixtures and expectations."""
    first, last = rng.choice(FIRST), rng.choice(LAST)
    name = f"{first} {last}"
    phone = _phone(rng)
    email = _email(rng, first, last)
    home = f"{rng.randint(100, 9899)} {rng.choice(HOME_STREETS)}"
    plate = _letters(rng, 3) + _digits(rng, 4)
    crash = f"{rng.choice(CRASH_ROADS)} AND {rng.choice(CROSS_ROADS)}"
    report = f"{rng.randint(2019, 2024)}-{_digits(rng, 6)}"
    if kind == "plain":
        has_home = has_plate = False
    else:
        has_home, has_plate = rng.random() < 0.8, rng.random() < 0.8
        if not (has_home or has_plate):
            has_home = True
    date = f"{rng.randint(1, 12):02d}/{rng.randint(1, 28):02d}/{rng.randint(2019, 2024)}"
    clock = f"{rng.randint(0, 23):02d}:{rng.randint(0, 59):02d}"

    sentences = [
        f"ON {date} AT {clock} HOURS UNIT 1 WAS TRAVELING {rng.choice(DIRECTIONS)} "
        f"WHEN IT STRUCK UNIT 2 NEAR {crash}.",
        f"DRIVER OF UNIT 1, {name}, STATED THAT THE SIGNAL WAS GREEN.",
    ]
    if has_home:
        sentences.append(f"DRIVER 1 RESIDES AT {home}, {rng.choice(CITIES)}.")
    if has_plate:
        sentences.append(f"UNIT 1 DISPLAYED PLATE {plate} AT THE SCENE.")
    sentences.append(f"DRIVER 1 CAN BE REACHED AT {phone} OR {email} FOR FOLLOW UP.")
    sentences.append(f"THIS IS REPORT {report} OF THE COUNTY.")
    if kind == "delimited":
        sentences.append("DAMAGE ESTIMATE WAS MARKED $$$ ON THE TOW SLIP.")
    fillers = FILLER[:]
    rng.shuffle(fillers)
    while sum(len(s) + 1 for s in sentences) < 480 and fillers:
        sentences.append(fillers.pop())
    text = " ".join(sentences)

    keep = [(NAME, name), (PHONE, phone), (EMAIL, email)]
    if has_home:
        keep.append((HOME, home))
    if has_plate:
        keep.append((ALNUM, plate))
    drop = [crash, report]
    for _, surface in keep:
        assert text.count(surface) == 1, surface
    expect = {"id": nid, "if_emitted": None, "keep": keep, "drop": drop, "audit": []}
    if kind == "delimited":
        expect["if_emitted"] = _tag(text, [(PHONE, phone), (EMAIL, email)])
        return text, keep, expect, [], []

    # K tagging runs. Run 1 tags every truth surface (it alone supplies
    # names); later runs miss or add candidates, tag rule-owned text, or
    # rewrite the narrative (hallucinated, discarded by the detag guard).
    truth = [(NAME, name)] + [p for p in keep if p[0] in (HOME, ALNUM)]
    email_local = email.split("@")[0]
    hallucinated_run = rng.randint(1, K_RUNS - 1) if "hallucinated" in flags else None
    home_votes: list[str] = []
    alnum_votes: list[str] = []
    extraction: list[dict] = []
    for run in range(K_RUNS):
        picks = list(truth)
        if run:
            picks = [p for p in picks if p[0] == NAME or rng.random() >= 0.2]
            if kind != "plain" and rng.random() < 0.25:
                picks.append((HOME, crash))
            if kind != "plain" and rng.random() < 0.25:
                picks.append((ALNUM, report))
            if rng.random() < 0.3:
                picks.append((PHONE, phone))
            elif kind != "plain" and rng.random() < 0.15:
                picks.append((ALNUM, email_local))  # inside a rule match: suppressed
        response = _tag(text, picks)
        if run == hallucinated_run:
            response = response.replace(" STATED THAT ", " SAID THAT ", 1)
        else:
            home_votes += [s for c, s in picks if c == HOME and s not in home_votes]
            alnum_votes += [s for c, s in picks if c == ALNUM and s not in alnum_votes]
        extraction.append(fixture_entry(build_extraction_prompt(text, seed=run), response))

    rule_surfaces = (phone, email)
    home_candidates = _ordered(text, home_votes, rule_surfaces)
    alnum_candidates = _ordered(text, alnum_votes, rule_surfaces)
    if not home_candidates and not alnum_candidates:
        return text, keep, expect, extraction, []

    evidence = {
        home: ("KEEP", "residence of the driver", f"RESIDES AT {home}"),
        plate: ("KEEP", "license plate of unit 1", f"PLATE {plate}"),
        crash: ("DROP", "crash location, not a residence", f"NEAR {crash}"),
        report: ("DROP", "report number", f"REPORT {report}"),
    }
    demoted = None
    if "demote" in flags:
        demoted = home if home in home_candidates else plate
    answer = {"home_address_reviews": [], "alphanumeric_reviews": []}
    for category, listed in ((HOME, home_candidates), (ALNUM, alnum_candidates)):
        key = "home_address_reviews" if category == HOME else "alphanumeric_reviews"
        for surface in listed:
            decision, reason, quote = evidence[surface]
            if surface == demoted:
                quote = quote.replace("RESIDES AT", "LIVES AT").replace("PLATE", "TAG")
                expect["audit"].append([category, surface, "UNCERTAIN", "retained"])
            else:
                final = "retained" if decision == "KEEP" else "removed"
                expect["audit"].append([category, surface, decision, final])
            answer[key].append({"text": surface, "decision": decision, "reason": reason,
                                "evidence": quote})
    responses = [json.dumps(answer)]
    if "repair" in flags:
        responses.insert(0, _invalid_answer(rng, answer))
    verifier = _verifier_entries(text, home_candidates, alnum_candidates, responses)
    return text, keep, expect, extraction, verifier


def _ordered(text: str, surfaces: list[str], rule_surfaces: tuple[str, ...]) -> list[str]:
    """Union order of ``hybrid_extract``: by first offset, then surface, with
    surfaces inside a rule match suppressed."""
    kept = [s for s in surfaces if not any(s in r for r in rule_surfaces)]
    return sorted(kept, key=lambda s: (text.find(s), s))


def _invalid_answer(rng: random.Random, answer: dict) -> str:
    variant = rng.randrange(3)
    if variant == 0:
        return "Here are my reviews of the candidates."
    broken = json.loads(json.dumps(answer))
    lists = [k for k in ("home_address_reviews", "alphanumeric_reviews") if broken[k]]
    if variant == 1:
        broken[lists[0]].pop()
    else:
        broken[lists[0]][0]["decision"] = "MAYBE"
    return json.dumps(broken)


def _verifier_entries(text, home, alnum, responses) -> list[dict]:
    """Entries for a verifier conversation; each later response answers the
    repair prompt that the previous, invalid one provokes."""
    base = build_verifier_prompt(text, home, alnum)
    entries = [fixture_entry(base, responses[0])]
    for previous, response in zip(responses, responses[1:]):
        try:
            parse_verifier_output(previous, home, alnum)
        except VerifierFormatError as exc:
            error_text = str(exc)
        else:
            raise AssertionError("scripted repair after a valid verifier answer")
        request = replace(
            base, user_content=repair_user_content(base.user_content, error_text)
        )
        entries.append(fixture_entry(request, response))
    return entries


def _long_narrative(rng: random.Random, nid: str):
    """A several-KB narrative dense with digit runs, near-miss phones and
    ``@`` tokens, holding two real phones and one real email."""
    phones = [_phone(rng), _phone(rng)]
    email = _email(rng, rng.choice(FIRST), rng.choice(LAST))
    real = [
        f"WITNESS CAN BE REACHED AT {phones[0]} DURING THE DAY.",
        f"OWNER LEFT A CALLBACK NUMBER OF {phones[1]} WITH DISPATCH.",
        f"STATEMENT WAS SENT TO {email} FOR REVIEW.",
    ]
    target = rng.randint(3000, 6000)
    sentences: list[str] = []
    drop: list[str] = []
    while sum(len(s) + 1 for s in sentences) < target:
        sentence, token = _dense_sentence(rng)
        if token is not None:
            if any(token in s or s in token for s in phones + [email]):
                continue
            if token not in drop:
                drop.append(token)
        sentences.append(sentence)
    for line in real:
        sentences.insert(rng.randrange(len(sentences) + 1), line)
    text = " ".join(sentences)
    keep = [(PHONE, phones[0]), (PHONE, phones[1]), (EMAIL, email)]
    for _, surface in keep:
        assert text.count(surface) == 1, surface
    expect = {"id": nid, "if_emitted": None, "keep": keep, "drop": drop, "audit": []}
    return text, keep, expect


_AT_TOKENS = ["UNIT@SCENE", "ME@HOME", "jdoe@mailhost", "@ROUTE", "OFC@DESK"]


def _dense_sentence(rng: random.Random) -> tuple[str, str | None]:
    """A filler sentence; the second item is a distractor that must stay
    untagged. Digit tokens are always separated by words so that two of
    them never join into a phone."""
    kind = rng.randrange(8)
    if kind == 0:
        token = _near_miss_phone(rng)
        return f"WITNESS GAVE NUMBER {token} WHICH WAS NOT IN SERVICE.", token
    if kind == 1:
        token = rng.choice(_AT_TOKENS)
        return f"OFFICER NOTED {token} ON THE FORM.", token
    if kind == 2:
        run = rng.choice([_digits(rng, rng.randint(5, 9)),
                          _digits(rng, rng.randint(11, 13)),
                          rng.choice("01") + _digits(rng, 9)])
        return f"CASE {run} WAS OPENED BY DISPATCH.", run
    if kind == 3:
        return (f"ODOMETER READ {_digits(rng, 6)} MILES AT {rng.randint(0, 23):02d}:"
                f"{rng.randint(0, 59):02d} HOURS."), None
    if kind == 4:
        return f"MM {_digits(rng, 3)}.{_digits(rng, 1)} IS NEAR EXIT {_digits(rng, 2)}.", None
    if kind == 5:
        vin = f"{rng.randint(1, 5)}{_letters(rng, 4)}{_digits(rng, 5)}{_letters(rng, 1)}{_digits(rng, 6)}"
        return f"VIN {vin} WAS RECORDED.", vin
    if kind == 6:
        return (f"SPEED LIMIT IS {rng.randint(25, 70)} MPH AND UNIT SPEED WAS "
                f"{rng.randint(20, 90)} MPH."), None
    return (f"DATE OF BIRTH {rng.randint(1, 12):02d}/{rng.randint(1, 28):02d}/"
            f"{rng.randint(1940, 2005)} IS ON FILE."), None


def _block_flags(rng: random.Random, block: int) -> list[tuple[str, set[str]]]:
    kinds = (["delimited"] * BLOCK_DELIMITED + ["plain"] * BLOCK_PLAIN
             + ["normal"] * (STUB_NARRATIVES - BLOCK_DELIMITED - BLOCK_PLAIN))
    rng.shuffle(kinds)
    if block == 0 and kinds[0] != "normal":
        first = kinds.index("normal")
        kinds[0], kinds[first] = kinds[first], kinds[0]  # narrative 0 warms up every layer
    normal = [i for i, k in enumerate(kinds) if k == "normal"]
    flags: list[set[str]] = [set() for _ in kinds]
    for flag, count in (("repair", BLOCK_REPAIR), ("demote", BLOCK_DEMOTE),
                        ("hallucinated", BLOCK_HALLUCINATED)):
        for i in rng.sample(normal, count):
            flags[i].add(flag)
    return list(zip(kinds, flags))


def _write_jsonl(path: Path, rows) -> None:
    with path.open("w", encoding="utf-8") as handle:
        for row in rows:
            handle.write(json.dumps(row, ensure_ascii=False) + "\n")


def _write_corpus(directory: Path, texts, gold) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    _write_jsonl(directory / "corpus.jsonl", ({"id": i, "text": t} for i, t in texts))
    _write_jsonl(directory / "corpus.gold.jsonl", (
        {"narrative_id": i, "category": c, "surface": s} for i, c, s in gold
    ))


def generate_hybrid(directory: Path, seed: int, narratives: int = MOCK_NARRATIVES,
                    prefix: int = STUB_NARRATIVES) -> None:
    """Hybrid corpus, fixtures and expectations, plus the stub prefix's faults."""
    rng = random.Random(f"hybrid-{seed}")
    texts, gold, expects, fixtures, prefix_keys, fault_pool = [], [], [], [], [], []
    mix: list[tuple[str, set[str]]] = []
    for block in range(-(-narratives // STUB_NARRATIVES)):
        mix += _block_flags(rng, block)
    for index, (kind, flags) in enumerate(mix[:narratives]):
        nid = f"h{seed}-{index:05d}"
        text, planted, expect, extraction, verifier = _hybrid_narrative(rng, nid, kind, flags)
        texts.append((nid, text))
        gold += [(nid, c, s) for c, s in planted]
        expects.append(expect)
        fixtures += extraction + verifier
        if index < prefix:
            prefix_keys += [e["key"] for e in extraction + verifier]
            if index:  # narrative 0 is the warm-up: set-up time sees no fault
                fault_pool += [e["key"] for e in extraction + verifier]
    _write_corpus(directory, texts, gold)
    write_fixture_file(directory / "fixtures.jsonl", fixtures)
    _write_jsonl(directory / "expect.jsonl", expects)
    faults = {
        "prefix_requests": len(prefix_keys),
        "faulted_keys": sorted(rng.sample(fault_pool, round(FAULT_SHARE * len(prefix_keys)))),
    }
    (directory / "faults.json").write_text(json.dumps(faults) + "\n", encoding="utf-8")


def generate_long(directory: Path, seed: int, narratives: int = LONG_NARRATIVES) -> None:
    """Long rules-only corpus and expectations."""
    rng = random.Random(f"long-{seed}")
    texts, gold, expects = [], [], []
    for index in range(narratives):
        nid = f"l{seed}-{index:05d}"
        text, planted, expect = _long_narrative(rng, nid)
        texts.append((nid, text))
        gold += [(nid, c, s) for c, s in planted]
        expects.append(expect)
    _write_corpus(directory, texts, gold)
    _write_jsonl(directory / "expect.jsonl", expects)


def write_prefix(source: Path, target: Path, count: int) -> None:
    """Copy the first ``count`` narratives, gold and expectations of a corpus."""
    target.mkdir(parents=True, exist_ok=True)
    ids: set[str] = set()
    for name in ("corpus.jsonl", "expect.jsonl"):
        lines = source.joinpath(name).read_text(encoding="utf-8").splitlines(True)[:count]
        target.joinpath(name).write_text("".join(lines), encoding="utf-8")
        ids |= {json.loads(line)["id"] for line in lines}
    gold = [line for line in source.joinpath("corpus.gold.jsonl").read_text(
        encoding="utf-8").splitlines(True) if json.loads(line)["narrative_id"] in ids]
    target.joinpath("corpus.gold.jsonl").write_text("".join(gold), encoding="utf-8")
