"""Task skills of the simulated LLM.

Each skill consumes a parsed prompt and produces output text the way a
competent instruction-following model would, with an explicit error channel:

* a *correctness draw* decides whether this call behaves correctly, with
  probability driven by the model tier's base accuracy, whether relevant
  context was supplied (grounding helps), and how many few-shot examples the
  prompt carries (in-context learning helps, saturating);
* on failure, a *hallucination draw* decides between confidently returning a
  plausible-but-wrong value of the right type (the failure mode the paper
  highlights) and abstaining with ``unknown``.

All draws are seeded from (model seed, prompt text, temperature), so a
temperature-0 call is exactly reproducible and self-consistency style
resampling is possible by varying temperature.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..data.documents import SENTENCE_SPLIT, extract_stated_facts
from ..data.world import ATTRIBUTE_QUESTIONS
from .embedding import EmbeddingModel
from .knowledge import KnowledgeBase
from .protocol import ParsedPrompt

ABSTAIN = "unknown"


def _question_patterns() -> List[Tuple[str, str, re.Pattern]]:
    """Inverse regexes of the question templates in the world module."""
    patterns = []
    for (etype, attr), template in ATTRIBUTE_QUESTIONS.items():
        pattern = re.escape(template).replace(re.escape("{subject}"), r"(?P<subject>.+?)")
        patterns.append((etype, attr, re.compile("^" + pattern + "$", re.IGNORECASE)))
    return patterns


_QUESTION_PATTERNS = _question_patterns()
_HOP_SUBJECT_RE = re.compile(
    r"^the (?P<rel>[\w ]+?) of (?P<entity>[A-Z][\w\- ]*)$", re.IGNORECASE
)


def parse_question(question: str) -> Optional[Tuple[str, str, str]]:
    """Parse a question into ``(subject, attribute, entity_type)`` or None.

    Whitespace-normalized first: real models are not brittle to doubled
    spaces or a detached question mark, so the simulated one isn't either.
    """
    question = re.sub(r"\s+", " ", question).strip()
    question = question.rstrip(" ?") + "?"
    for etype, attr, pattern in _QUESTION_PATTERNS:
        match = pattern.match(question)
        if match:
            return (match.group("subject").strip(), attr, etype)
    return None


def parse_hop_subject(subject: str) -> Optional[Tuple[str, str]]:
    """If ``subject`` is 'the X of Y', return ``(relation_attr, entity)``."""
    match = _HOP_SUBJECT_RE.match(subject.strip())
    if match is None:
        return None
    rel = match.group("rel").strip().lower().replace(" ", "_")
    return (rel, match.group("entity").strip())


def parse_record(text: str) -> Dict[str, str]:
    """Parse a record from JSON or ``key=value; ...`` fallback."""
    text = text.strip()
    if text.startswith("{"):
        try:
            loaded = json.loads(text)
            return {str(k): str(v) for k, v in loaded.items()}
        except (json.JSONDecodeError, AttributeError):
            pass
    record: Dict[str, str] = {}
    for part in re.split(r"[;\n]", text):
        if "=" in part:
            key, _, value = part.partition("=")
            record[key.strip()] = value.strip()
    return record


_NUMERIC_RE = re.compile(r"^-?\d+(\.\d+)?$")

_PREDICATE_RE = re.compile(
    r"^(?P<field>[\w.]+)\s*(?P<op>==|!=|>=|<=|>|<|contains|in)\s*(?P<value>.+)$"
)


def predicate_field(predicate: str) -> Optional[str]:
    """The record field a ``field op literal`` predicate reads, if it parses.

    Used by planners to decide whether a rule predicate commutes with an
    operator that writes a field (it does iff the fields differ).
    """
    match = _PREDICATE_RE.match(predicate.strip())
    return match.group("field") if match is not None else None


def compile_predicate(
    predicate: str,
) -> Optional[Callable[[Dict[str, str]], Optional[bool]]]:
    """Pre-parse ``field op literal`` into a per-record evaluator.

    Returns ``None`` when the predicate itself does not parse (every record
    is then undecidable). Otherwise the closure returns the ground truth of
    ``field op literal`` over a record: None when the field is missing or a
    comparison operand is not numeric (the model must guess), else the
    verdict. The regex parse and literal normalization are hoisted out of
    the closure, which matters when a predicate cascade runs over millions
    of rows.
    """
    match = _PREDICATE_RE.match(predicate.strip())
    if match is None:
        return None
    field = match.group("field")
    op = match.group("op")
    literal = match.group("value").strip().strip("'\"")

    if op in {">", "<", ">=", "<="}:
        literal_numeric = _NUMERIC_RE.match(literal) is not None
        bound = float(literal) if literal_numeric else 0.0

        def numeric_eval(record: Dict[str, str]) -> Optional[bool]:
            actual = record.get(field)
            if actual is None:
                return None
            if not (literal_numeric and _NUMERIC_RE.match(actual)):
                return None
            a = float(actual)
            if op == "<":
                return a < bound
            if op == ">":
                return a > bound
            if op == "<=":
                return a <= bound
            return a >= bound

        return numeric_eval

    lowered = literal.lower()
    if op in {"==", "!="}:
        want_equal = op == "=="

        def equality_eval(record: Dict[str, str]) -> Optional[bool]:
            actual = record.get(field)
            if actual is None:
                return None
            equal = actual.strip().lower() == lowered
            return equal if want_equal else not equal

        return equality_eval

    if op == "contains":

        def contains_eval(record: Dict[str, str]) -> Optional[bool]:
            actual = record.get(field)
            if actual is None:
                return None
            return lowered in actual.lower()

        return contains_eval

    options = frozenset(
        part.strip().strip("'\"").lower() for part in literal.split(",")
    )

    def membership_eval(record: Dict[str, str]) -> Optional[bool]:
        actual = record.get(field)
        if actual is None:
            return None
        return actual.strip().lower() in options

    return membership_eval


@dataclass
class SkillContext:
    """Everything a skill invocation may consult."""

    prompt: ParsedPrompt
    knowledge: KnowledgeBase
    embedder: EmbeddingModel
    rng: np.random.Generator
    base_accuracy: float
    hallucination_rate: float
    reasoning_depth: int  # max hops the model can chain internally

    # -------------------------------------------------------------- helpers
    def p_correct(self, *, grounded: bool, difficulty: float = 0.0) -> float:
        """Per-call correctness probability."""
        p = self.base_accuracy
        if grounded:
            p += 0.18
        p += 0.03 * min(self.prompt.num_examples, 4)
        p -= difficulty
        return float(np.clip(p, 0.02, 0.995))

    def draw_correct(self, *, grounded: bool, difficulty: float = 0.0) -> bool:
        return bool(self.rng.random() < self.p_correct(grounded=grounded, difficulty=difficulty))

    def fail_output(self, attribute: str, correct: Optional[str]) -> str:
        """Hallucinate a plausible wrong value or abstain."""
        if self.rng.random() < self.hallucination_rate:
            return self.knowledge.plausible_wrong_value(
                attribute, correct, seed_material=self.prompt.raw[:200]
            )
        return ABSTAIN


# --------------------------------------------------------------------- QA
def skill_qa(ctx: SkillContext) -> Tuple[str, Dict[str, object]]:
    """Answer a question, preferring stated context over parametric memory."""
    parsed = parse_question(ctx.prompt.input)
    if parsed is None:
        return ABSTAIN, {"reason": "unparseable-question"}
    subject, attribute, _etype = parsed

    # Multi-hop phrasing: "the maker of Volt-3" as subject.
    hop = parse_hop_subject(subject)
    context_facts = (
        extract_stated_facts(ctx.prompt.context) if ctx.prompt.has_context else []
    )
    fact_map = {f.key(): f.value for f in context_facts}

    def resolve(subj: str, attr: str) -> Tuple[Optional[str], bool]:
        """(value, grounded_in_context)."""
        stated = fact_map.get((subj.lower(), attr))
        if stated is not None:
            return stated, True
        return ctx.knowledge.lookup(subj, attr), False

    if hop is not None:
        rel, entity = hop
        if ctx.reasoning_depth < 2:
            # Model cannot chain: answers as if the bridge entity were the
            # subject, which is usually wrong -> low multi-hop accuracy.
            value, grounded = resolve(entity, attribute)
        else:
            bridge, grounded1 = resolve(entity, rel)
            if bridge is None:
                return ctx.fail_output(attribute, None), {"reason": "missing-bridge"}
            value, grounded2 = resolve(bridge, attribute)
            grounded = grounded1 and grounded2
        difficulty = 0.12  # chaining is harder even when facts are available
    else:
        value, grounded = resolve(subject, attribute)
        difficulty = 0.0

    if value is None:
        return ctx.fail_output(attribute, None), {"reason": "unknown-fact"}
    if ctx.draw_correct(grounded=grounded, difficulty=difficulty):
        return value, {"grounded": grounded}
    return ctx.fail_output(attribute, value), {"reason": "error-draw"}


# ---------------------------------------------------------------- extract
def skill_extract(ctx: SkillContext) -> Tuple[str, Dict[str, object]]:
    """Extract requested fields about a subject from the context passage.

    Prompt fields: ``subject`` and comma-separated ``attributes``.
    Output: one ``attr: value`` line per requested field.
    """
    subject = ctx.prompt.fields.get("subject", "").strip()
    wanted = [a.strip() for a in ctx.prompt.fields.get("attributes", "").split(",") if a.strip()]
    if not wanted:
        return ABSTAIN, {"reason": "no-attributes-requested"}
    stated = {
        f.attribute: f.value
        for f in extract_stated_facts(ctx.prompt.context)
        if not subject or f.subject.lower() == subject.lower()
    }
    lines = []
    for attr in wanted:
        value = stated.get(attr)
        if value is not None and ctx.draw_correct(grounded=True):
            lines.append(f"{attr}: {value}")
        else:
            lines.append(f"{attr}: {ctx.fail_output(attr, value)}")
    return "\n".join(lines), {"stated": len(stated)}


# ------------------------------------------------------------------ judge
def skill_judge(ctx: SkillContext) -> Tuple[str, Dict[str, object]]:
    """Boolean judgment: a predicate over a record, or topicality of text.

    Prompt fields: ``predicate``. Input: a record (JSON / key=value) or raw
    text for semantic predicates of the form ``is_about <topic>``.
    """
    predicate = ctx.prompt.fields.get("predicate", "").strip()
    if predicate.lower().startswith("is_about"):
        topic = predicate[len("is_about") :].strip().strip("'\"")
        sim = ctx.embedder.similarity(topic, ctx.prompt.input)
        truth = sim > 0.18
        grounded = True
    else:
        check = compile_predicate(predicate)
        verdict = None if check is None else check(parse_record(ctx.prompt.input))
        if verdict is None:
            guess = "yes" if ctx.rng.random() < 0.5 else "no"
            return guess, {"reason": "unresolvable-predicate"}
        truth = verdict
        grounded = True
    if ctx.draw_correct(grounded=grounded):
        return ("yes" if truth else "no"), {"truth": truth}
    return ("no" if truth else "yes"), {"truth": truth, "reason": "error-draw"}


# ------------------------------------------------------------------- join
def skill_join(ctx: SkillContext) -> Tuple[str, Dict[str, object]]:
    """Entity-match judgment between two records.

    Prompt fields: ``left_key`` / ``right_key`` name the fields to compare.
    Input: two records separated by a line ``---``.
    """
    left_key = ctx.prompt.fields.get("left_key", "name")
    right_key = ctx.prompt.fields.get("right_key", "name")
    parts = ctx.prompt.input.split("---")
    if len(parts) != 2:
        return "no", {"reason": "malformed-input"}
    left = parse_record(parts[0])
    right = parse_record(parts[1])
    lv = left.get(left_key, "").strip().lower()
    rv = right.get(right_key, "").strip().lower()
    if not lv or not rv:
        return "no", {"reason": "missing-keys"}
    truth = lv == rv
    if ctx.draw_correct(grounded=True):
        return ("yes" if truth else "no"), {"truth": truth}
    return ("no" if truth else "yes"), {"truth": truth, "reason": "error-draw"}


# -------------------------------------------------------------------- map
_MAP_FIELD_RE = re.compile(r"value of field ['\"]?(\w+)['\"]?", re.IGNORECASE)


def skill_map(ctx: SkillContext) -> Tuple[str, Dict[str, object]]:
    """Apply a per-item transformation described in the instruction.

    Supported instructions (the vocabulary our semantic operators emit):
    ``return the value of field 'x'``, ``uppercase``, ``lowercase``,
    ``extract the year``, ``first sentence``.
    """
    instruction = ctx.prompt.instruction.lower()
    text = ctx.prompt.input
    field_match = _MAP_FIELD_RE.search(instruction)
    if field_match:
        record = parse_record(text)
        value = record.get(field_match.group(1))
        if value is None:
            return ABSTAIN, {"reason": "missing-field"}
        if ctx.draw_correct(grounded=True):
            return value, {}
        return ctx.fail_output(field_match.group(1), value), {"reason": "error-draw"}
    if "uppercase" in instruction:
        return text.upper(), {}
    if "lowercase" in instruction:
        return text.lower(), {}
    if "year" in instruction:
        match = re.search(r"\b(19|20)\d{2}\b", text)
        if match and ctx.draw_correct(grounded=True):
            return match.group(0), {}
        return ctx.fail_output("released", match.group(0) if match else None), {}
    if "first sentence" in instruction or "summar" in instruction:
        sentences = SENTENCE_SPLIT.split(text.strip())
        return sentences[0] if sentences else "", {}
    return text, {"reason": "unknown-map"}


# ------------------------------------------------------------------- rank
def skill_rank(ctx: SkillContext) -> Tuple[str, Dict[str, object]]:
    """Order numbered context passages by relevance to the input query.

    Context lines look like ``[i] passage text``; output is the id order,
    comma-separated. Errors manifest as adjacent swaps, mimicking imperfect
    pointwise reranking.
    """
    query = ctx.prompt.input
    items: List[Tuple[int, str]] = []
    for line in ctx.prompt.context.splitlines():
        match = re.match(r"^\[(\d+)\]\s*(.*)$", line.strip())
        if match:
            items.append((int(match.group(1)), match.group(2)))
    if not items:
        return "", {"reason": "no-items"}
    qvec = ctx.embedder.embed(query)
    scored = sorted(
        items,
        key=lambda it: -float(np.dot(qvec, ctx.embedder.embed(it[1]))),
    )
    order = [idx for idx, _ in scored]
    for i in range(len(order) - 1):
        if not ctx.draw_correct(grounded=True):
            order[i], order[i + 1] = order[i + 1], order[i]
    return ",".join(str(i) for i in order), {"items": len(order)}


# -------------------------------------------------------------- decompose
def skill_decompose(ctx: SkillContext) -> Tuple[str, Dict[str, object]]:
    """Break a two-hop question into two single-hop sub-questions."""
    parsed = parse_question(ctx.prompt.input)
    if parsed is None:
        return ctx.prompt.input, {"reason": "unparseable"}
    subject, attribute, etype = parsed
    hop = parse_hop_subject(subject)
    if hop is None:
        return ctx.prompt.input, {"hops": 1}
    rel, entity = hop
    if not ctx.draw_correct(grounded=True, difficulty=0.05):
        # A failed decomposition asks about the wrong relation.
        rel = ctx.knowledge.plausible_wrong_value("__relation__", rel, ctx.prompt.raw[:100])
        if rel == "unknown-entity":
            rel = "headquarters"
    first_template = None
    for (qetype, qattr), template in ATTRIBUTE_QUESTIONS.items():
        if qattr == rel:
            first_template = template
            break
    if first_template is None:
        first_template = "What is the " + rel.replace("_", " ") + " of {subject}?"
    second_template = ATTRIBUTE_QUESTIONS.get((etype, attribute))
    if second_template is None:
        second_template = "What is the " + attribute.replace("_", " ") + " of {subject}?"
    first = first_template.format(subject=entity)
    second = second_template.format(subject="{answer1}")
    return first + "\n" + second, {"hops": 2}


# ------------------------------------------------------------- summarize
def skill_summarize(ctx: SkillContext) -> Tuple[str, Dict[str, object]]:
    """One-line extractive summary: the highest-information fact sentence."""
    facts = extract_stated_facts(ctx.prompt.context or ctx.prompt.input)
    if facts:
        lead = facts[0]
        return f"{lead.subject}: {lead.attribute} is {lead.value}.", {"facts": len(facts)}
    text = (ctx.prompt.context or ctx.prompt.input).strip()
    sentences = SENTENCE_SPLIT.split(text)
    return (sentences[0] if sentences else ""), {"facts": 0}


# ------------------------------------------------------------------ label
def skill_label(ctx: SkillContext) -> Tuple[str, Dict[str, object]]:
    """Classify the input into one of the classes in the ``classes`` field."""
    classes = [c.strip() for c in ctx.prompt.fields.get("classes", "").split("|") if c.strip()]
    if not classes:
        return ABSTAIN, {"reason": "no-classes"}
    qvec = ctx.embedder.embed(ctx.prompt.input)
    best = max(classes, key=lambda c: float(np.dot(qvec, ctx.embedder.embed(c))))
    if ctx.draw_correct(grounded=True):
        return best, {}
    others = [c for c in classes if c != best]
    if not others:
        return best, {}
    return others[int(ctx.rng.integers(0, len(others)))], {"reason": "error-draw"}


# ---------------------------------------------------------------- codegen
def skill_codegen(ctx: SkillContext) -> Tuple[str, Dict[str, object]]:
    """Synthesize an extraction-function *spec* (Evaporate-style).

    The prompt carries ``attribute`` / ``etype`` fields plus a sample
    document in the context. The "function" the model writes is returned as
    a compact spec line ``FUNC etype=<t> attr=<a> variant=<i>`` naming which
    phrasing variant the function's regex targets. Real Evaporate functions
    are partial (each handles the phrasings its author saw) and sometimes
    buggy; we reproduce both: the variant is the one evidenced by the sample
    document when the call behaves correctly, and a mis-targeted or corrupt
    variant otherwise.
    """
    from ..data.documents import FACT_TEMPLATES  # local import: avoid cycle at module load

    attribute = ctx.prompt.fields.get("attribute", "").strip()
    etype = ctx.prompt.fields.get("etype", "").strip()
    templates = FACT_TEMPLATES.get((etype, attribute))
    if not templates:
        return "FUNC invalid", {"reason": "unknown-attribute"}
    # Which variant does the sample document actually use?
    evidenced = None
    for i, template in enumerate(templates):
        probe = template.split("{")[0].strip()
        if probe and probe in ctx.prompt.context:
            evidenced = i
            break
    if evidenced is None:
        # Fall back to matching on a mid-template literal fragment.
        for i, template in enumerate(templates):
            fragments = [p for p in re.split(r"\{[sv]\}", template) if len(p.strip()) > 3]
            if any(frag.strip() in ctx.prompt.context for frag in fragments):
                evidenced = i
                break
    if evidenced is None:
        evidenced = int(ctx.rng.integers(0, len(templates)))
    if ctx.draw_correct(grounded=True):
        return f"FUNC etype={etype} attr={attribute} variant={evidenced}", {}
    # Buggy function: targets the wrong variant or the wrong capture.
    if ctx.rng.random() < 0.5 and len(templates) > 1:
        wrong = (evidenced + 1 + int(ctx.rng.integers(0, len(templates) - 1))) % len(templates)
        return f"FUNC etype={etype} attr={attribute} variant={wrong}", {"reason": "bug"}
    return f"FUNC etype={etype} attr={attribute} variant={evidenced} swap=1", {"reason": "bug"}


SKILLS = {
    "qa": skill_qa,
    "codegen": skill_codegen,
    "extract": skill_extract,
    "judge": skill_judge,
    "join": skill_join,
    "map": skill_map,
    "rank": skill_rank,
    "decompose": skill_decompose,
    "summarize": skill_summarize,
    "label": skill_label,
}
