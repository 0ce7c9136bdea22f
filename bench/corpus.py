"""Seeded synthetic corpora that keep their own labels.

Every workload has a fixed make-up: how many requirements use each text
template, the shape of the Derive graph, the set layout, which requirements
carry slot fields. The seed only decides the arrangement: which id sits at
which position, which words fill each template, which requirements are
copies. Two seeds therefore give different inputs with the same amount of
work, so figures from different seeds are comparable.

For each requirement the generator records what the program should find,
computed from the template and the catalog's documented `contributes_to`
map, never from the program's output:

- the verdict of R1, R2, R10, R16 and TBX;
- the rolled-up characteristic verdicts (C3 needs all four rules
  satisfied; C4, C5, C7 and C9 follow R1);
- for the clean templates, the pattern and the slot fragments it composed;
- its Derive parent, its leaf set, the placeholders it carries.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

# also the column order of lint summaries, the matrix and the SetReview table
RULES = ("R1", "R2", "R10", "R16", "TBX")
CHARACTERISTICS = ("C3", "C4", "C5", "C7", "C9")
VERDICT_NODES = RULES + CHARACTERISTICS

CLEAN_TEMPLATES = ("iso1", "iso2", "carson")
TEMPLATES = CLEAN_TEMPLATES + ("shall_not", "passive", "capable", "tbd", "no_shall",
                               "two_shall")

# template -> the rules it violates
VIOLATES = {
    "iso1": (), "iso2": (), "carson": (),
    "shall_not": ("R16",), "passive": ("R2",), "capable": ("R10",),
    "tbd": ("TBX",), "no_shall": ("R1",), "two_shall": ("R1",),
}

SUBJECTS = ("Spacecraft", "Rover", "Flight_Computer", "Star_Tracker", "Telecom_Unit",
            "Power_Unit", "Thermal_Controller", "Ground_Station", "Camera_Head",
            "Sample_Handler", "Navigation_Filter", "Payload_Processor")
OBJECTS = ("Event_Log", "Housekeeping_Data", "Science_Image", "Attitude_Estimate",
           "Battery_Charge", "Command_Queue", "Sample_Container", "Heater_Setpoint",
           "Downlink_Frame", "Fault_Record", "Range_Measurement", "Clock_Offset",
           "Memory_Dump", "Wheel_Speed", "Sun_Vector", "Uplink_Packet")
MODES = ("Cruise", "Survey", "Safe_Hold", "Approach", "Sample_Collection", "Downlink")
# (base form, past participle, -ing form)
VERBS = (("archive", "archived", "archiving"), ("transmit", "transmitted", "transmitting"),
         ("compute", "computed", "computing"), ("store", "stored", "storing"),
         ("report", "reported", "reporting"), ("record", "recorded", "recording"),
         ("deliver", "delivered", "delivering"), ("process", "processed", "processing"),
         ("monitor", "monitored", "monitoring"), ("compress", "compressed", "compressing"))
CONSTRAINTS = ("within {n} s", "within {n} ms", "at least {n} times per orbit",
               "with an error of at most {n} %", "every {n} s", "at most {n} s after receipt")
PLACEHOLDERS = ("TBD", "TBC", "TBR")
# synonyms for some glossary terms; lint and reports see them through annotate
SYNONYMS = {"Flight_Computer": "FC_Unit", "Star_Tracker": "ST_Head",
            "Event_Log": "Evt_Log", "Science_Image": "Sci_Image"}


@dataclass
class Req:
    id: str
    template: str                     # the template of the current text
    text: str
    attr_placeholder: bool = False    # attribute A01 holds a TBC/TBD/TBR token
    set_id: str = ""
    parent: str | None = None         # Derive target (the requirement it derives from)
    copy_of: str | None = None        # Copy target when this requirement is a copy
    pattern: str | None = None        # composed pattern, clean templates only
    slots: dict[str, str] = field(default_factory=dict)       # composed fragments
    slot_fields: bool = False         # corpus carries pattern/srN fields
    bindings: dict[str, str] = field(default_factory=dict)    # slot -> element id
    attrs: dict[str, str] = field(default_factory=dict)
    depth: int = 0                    # Derive distance to its root

    @property
    def labels(self) -> dict[str, str]:
        """Expected verdict per node; a placeholder in A01 violates TBX too."""
        labels = labels_for(self.template)
        if self.attr_placeholder:
            labels["TBX"] = "V"
        return labels

    @property
    def placeholders(self) -> int:
        """TBC/TBD/TBR tokens in the text and the text attributes."""
        return int(self.template == "tbd") + int(self.attr_placeholder)


@dataclass
class Corpus:
    workload: str
    seed: int
    reqs: dict[str, Req]
    sets: dict[str, list[str]]        # set id -> ordered members
    set_parent: dict[str, str]
    elements: list[tuple[str, str, str]]
    terms: list[tuple[str, tuple[str, ...], str]]   # name, synonyms, allocation
    links: list[tuple[str, str, str, str]]          # id, kind, source, target
    config_text: str | None
    mapping_text: str

    def leaf_sets(self) -> list[str]:
        return [s for s, members in self.sets.items() if members and members[0] in self.reqs]

    def transitive_reqs(self, set_id: str) -> list[str]:
        out: list[str] = []
        for member in self.sets[set_id]:
            out.extend(self.transitive_reqs(member) if member in self.sets else [member])
        return out

    def derive_edges(self) -> list[tuple[str, str]]:
        return [(s, t) for _, kind, s, t in self.links if kind == "Derive"]

    def text(self) -> str:
        """The corpus file, in the block format the program loads."""
        out: list[str] = [f"# synthetic corpus: workload {self.workload}, seed {self.seed}", ""]
        for eid, name, kind in self.elements:
            out += [f"[element {eid}]", f"name = {name}", f"kind = {kind}", ""]
        for name, synonyms, allocation in self.terms:
            out += [f"[term {name}]", f"definition = Defined term {name.replace('_', ' ')}."]
            if synonyms:
                out.append("synonyms = " + ", ".join(synonyms))
            out += [f"allocations = {allocation}", ""]
        for req in self.reqs.values():
            out += [f"[requirement {req.id}]", f"name = Requirement {req.id}",
                    f"text = {req.text}"]
            if req.slot_fields:
                out.append(f"pattern = {req.pattern}")
                for key in ("SR1", "SR2", "SR3", "SR4", "SR5"):
                    if key in req.slots:
                        out.append(f"{key.lower()} = {req.slots[key]}")
                        if key in req.bindings:
                            out.append(f"{key.lower()}_ref = {req.bindings[key]}")
            out += [f"{k} = {v}" for k, v in req.attrs.items()]
            out.append("")
        for sid, members in self.sets.items():
            out += [f"[set {sid}]", f"name = Set {sid}", "members = " + ", ".join(members), ""]
        for lid, kind, source, target in self.links:
            out += [f"[link {lid}]", f"kind = {kind}", f"source = {source}",
                    f"target = {target}", ""]
        return "\n".join(out)


def labels_for(template: str) -> dict[str, str]:
    """Expected verdicts, rules and rolled-up characteristics, of one template."""
    bad = set(VIOLATES[template])
    labels = {rule: "V" if rule in bad else "S" for rule in RULES}
    labels["C3"] = "S" if all(labels[r] == "S" for r in ("R1", "R2", "R10", "R16")) else "V"
    for cid in ("C4", "C5", "C7", "C9"):
        labels[cid] = labels["R1"]
    return labels


class Composer:
    """Seeded statement texts; clean templates also return their slots."""

    def __init__(self, rng: random.Random):
        self.rng = rng

    def words(self):
        rng = self.rng
        verb = rng.choice(VERBS)
        return (rng.choice(SUBJECTS), verb, rng.choice(OBJECTS),
                rng.choice(CONSTRAINTS).format(n=rng.randint(2, 900)), rng.choice(MODES))

    def compose(self, template: str) -> tuple[str, str | None, dict[str, str]]:
        subj, (verb, past, ing), obj, cons, mode = self.words()
        if template == "iso1":
            return (f"The {subj} shall {verb} {obj} {cons}.", "Iso1",
                    {"SR2": subj, "SR3": f"{verb} {obj}", "SR5": cons})
        if template == "iso2":
            cond = f"While in the {mode} mode"
            return (f"{cond}, the {subj} shall {verb} {obj} {cons}.", "Iso2",
                    {"SR1": cond, "SR2": subj, "SR3": verb, "SR4": obj, "SR5": cons})
        if template == "carson":
            cond = f"nominal {mode} conditions"
            return (f"The {subj} shall {verb} {obj} {cons} under {cond}.", "Carson",
                    {"SR2": subj, "SR3": f"{verb} {obj}", "SR5": cons, "SR1": cond})
        if template == "shall_not":
            return f"The {subj} shall not {verb} {obj} {cons}.", None, {}
        if template == "passive":
            return f"The {obj} shall be {past} by the {subj} {cons}.", None, {}
        if template == "capable":
            return f"The {subj} shall be capable of {ing} {obj} {cons}.", None, {}
        if template == "tbd":
            token = self.rng.choice(PLACEHOLDERS)
            return f"The {subj} shall {verb} {obj} within {token} s.", None, {}
        if template == "no_shall":
            return f"The {subj} will {verb} {obj} {cons}.", None, {}
        if template == "two_shall":
            verb2 = self.rng.choice(VERBS)[0]
            return (f"The {subj} shall {verb} {obj} {cons} and shall {verb2} "
                    f"{self.rng.choice(OBJECTS)}.", None, {})
        raise ValueError(f"unknown template {template!r}")


def quota(total: int, weights: dict[str, float]) -> dict[str, int]:
    """Largest-remainder split of total by weight; independent of the seed."""
    norm = sum(weights.values())
    exact = {k: total * w / norm for k, w in weights.items()}
    counts = {k: int(v) for k, v in exact.items()}
    rest = total - sum(counts.values())
    for k in sorted(exact, key=lambda k: (counts[k] - exact[k], k))[:rest]:
        counts[k] += 1
    return counts


SLOT_SHARE = 0.6  # clean-template requirements written with pattern and slot fields
TEMPLATE_WEIGHTS = {"iso1": 22, "iso2": 20, "carson": 14, "shall_not": 7, "passive": 8,
                    "capable": 7, "tbd": 6, "tbd_attr": 2, "no_shall": 6, "two_shall": 8}


@dataclass(frozen=True)
class Shape:
    """The fixed make-up of one workload's corpus."""
    prefix: str
    n: int                      # requirements, copies included
    set_size: int               # requirements per leaf set
    nesting: int                # 1: flat leaf sets; 3: root > groups > leaf sets
    derive: str                 # "forest": one in four derives; "binary": heap-shaped tree
    copies: int                 # requirements that are Copy mirrors of another
    element_links: float        # share of requirements with a Refine/Satisfy/Verify link
    kdr: int                    # requirements flagged Key/Driving in A38
    config: bool                # pass a catalog override with an X attribute


SHAPES = {
    "bulk-lint": Shape("BL", 1000, 25, 1, "forest", 20, 0.04, 0, False),
    "trace-review": Shape("TR", 320, 20, 3, "binary", 20, 0.5, 20, True),
}

CONFIG_TEXT = """\
# Adds one extension attribute and restates the stock R10 phrases:
# no rule verdict changes.
[attribute X01]
name = Review Board
kind = Text

[rule R10]
phrases = be capable of, be able to
"""


def generate(workload: str, seed: int, shape: Shape | None = None) -> Corpus:
    """The corpus of one workload and seed; shape overrides its make-up."""
    shape = shape or SHAPES[workload]
    rng = random.Random(f"{workload}:{seed}")
    composer = Composer(rng)
    n = shape.n

    # positions 0..n-1 carry the structure; the seed maps ids to positions
    numbers = list(range(1, n + 1))
    rng.shuffle(numbers)
    ids = [f"{shape.prefix}-{k:04d}" for k in numbers]

    # copies take the last positions; each mirrors an earlier non-copy
    originals = n - shape.copies
    templates: list[str] = []
    for name, count in quota(originals, TEMPLATE_WEIGHTS).items():
        templates += [name] * count
    rng.shuffle(templates)

    elements: list[tuple[str, str, str]] = []
    element_of: dict[str, str] = {}
    for kind, names in (("Block", SUBJECTS), ("Block", OBJECTS), ("Mode", MODES)):
        for name in names:
            eid = "el-" + name.lower().replace("_", "-")
            elements.append((eid, name, kind))
            element_of[name] = eid
    terms = [(name, (SYNONYMS[name],) if name in SYNONYMS else (), element_of[name])
             for name in SUBJECTS + OBJECTS]

    reqs: dict[str, Req] = {}
    clean_positions = [i for i in range(originals) if templates[i] in CLEAN_TEMPLATES]
    slotted = set(rng.sample(clean_positions, round(len(clean_positions) * SLOT_SHARE)))
    for i in range(originals):
        # tbd_attr: a clean Iso1 text with the placeholder in attribute A01
        template = "iso1" if templates[i] == "tbd_attr" else templates[i]
        text, pattern, slots = composer.compose(template)
        req = Req(ids[i], template, text, templates[i] == "tbd_attr",
                  pattern=pattern, slots=slots)
        req.attrs["A34"] = rng.choice(("High", "Medium", "Low"))
        req.attrs["A30"] = rng.choice(("Draft", "Reviewed", "Approved"))
        req.attrs["A40"] = rng.choice(("Functional", "Performance", "Interface"))
        if req.attr_placeholder:
            req.attrs["A01"] = f"Margin {rng.choice(PLACEHOLDERS)} pending analysis"
        elif rng.random() < 0.5:
            req.attrs["A01"] = f"Flows down from mission objective {rng.randint(1, 9)}"
        if i in slotted:
            req.slot_fields = True
            req.bindings = {k: element_of[v] for k, v in slots.items() if v in element_of}
            if pattern == "Iso2":
                mode = slots["SR1"].split()[3]
                req.bindings["SR1"] = element_of[mode]
        reqs[req.id] = req

    for j in range(shape.copies):
        source = reqs[ids[rng.randrange(originals)]]
        # a copy mirrors the text only, so a placeholder in A01 does not carry over
        copy = Req(ids[originals + j], source.template, source.text, copy_of=source.id)
        copy.attrs["A34"] = "Medium"
        reqs[copy.id] = copy

    links: list[tuple[str, str, str, str]] = []

    def link(kind: str, source: str, target: str) -> None:
        links.append((f"lk-{len(links) + 1:05d}", kind, source, target))

    # Derive graph over originals; the source derives from the target
    if shape.derive == "binary":
        for i in range(1, originals):
            parent = (i - 1) // 2
            reqs[ids[i]].parent = ids[parent]
            reqs[ids[i]].depth = reqs[ids[parent]].depth + 1
    else:
        # forest: positions n/2 .. n/2 + n/4 each derive from one of the first n/8
        for k in range(originals // 4):
            child, parent = originals // 2 + k, k // 2
            reqs[ids[child]].parent = ids[parent]
            reqs[ids[child]].depth = 1
    for i in range(originals):
        if reqs[ids[i]].parent is not None:
            link("Derive", ids[i], reqs[ids[i]].parent)
    for req in reqs.values():
        if req.copy_of is not None:
            link("Copy", req.id, req.copy_of)

    # element links: Refine from the first element the text names, Satisfy or
    # Verify from a mode
    linked = rng.sample(range(originals), round(originals * shape.element_links))
    for i in sorted(linked):
        req = reqs[ids[i]]
        words = [w.rstrip(".,") for w in req.text.split()]
        subject = next(w for w in words if w in element_of)
        link("Refine", element_of[subject], req.id)
        link(rng.choice(("Satisfy", "Verify")), element_of[MODES[i % len(MODES)]], req.id)

    # Key/Driving flags on requirements deep enough to have a derive chain
    deep = [i for i in range(originals) if reqs[ids[i]].depth >= 2]
    for i in rng.sample(deep, min(shape.kdr, len(deep))):
        reqs[ids[i]].attrs["A38"] = rng.choice(("K", "D", "K+D"))
    if shape.config:
        for i in range(0, originals, 3):
            reqs[ids[i]].attrs["X01"] = f"Board {rng.randint(1, 5)}"

    # sets: the seed shuffles membership; leaf sets hold set_size requirements
    order = list(reqs)
    rng.shuffle(order)
    sets: dict[str, list[str]] = {}
    set_parent: dict[str, str] = {}
    leaves = [f"{shape.prefix}S-{k:03d}" for k in range(1, len(order) // shape.set_size + 1)]
    for k, sid in enumerate(leaves):
        chunk = order[k * shape.set_size:(k + 1) * shape.set_size]
        if k == len(leaves) - 1:
            chunk = order[k * shape.set_size:]
        sets[sid] = chunk
        for rid in chunk:
            reqs[rid].set_id = sid
    if shape.nesting == 3:
        groups = [f"{shape.prefix}G-{k:02d}" for k in range(1, 5)]
        per = len(leaves) // len(groups)
        for k, gid in enumerate(groups):
            sets[gid] = leaves[k * per:(k + 1) * per] if k < len(groups) - 1 else leaves[k * per:]
            for sid in sets[gid]:
                set_parent[sid] = gid
        sets[f"{shape.prefix}G-00"] = groups
        for gid in groups:
            set_parent[gid] = f"{shape.prefix}G-00"

    mapping_keys = ["A01", "A30", "A34", "A38", "A40"] + (["X01"] if shape.config else [])
    mapping = "".join(f"{key} = ReqIF.{key}\n" for key in mapping_keys)
    return Corpus(workload, seed, reqs, sets, set_parent, elements, terms, links,
                  CONFIG_TEXT if shape.config else None, mapping)
