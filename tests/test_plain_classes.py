"""The package's config, report and table classes are plain classes.

Each keeps what a dataclass gave it: its fields, in constructor order, in
`_fields` (which `--config` reads); field equality with instances of its
own class; read-only instances, with a hash, where the class is a config
or a tagged sentence; a new empty table for each instance given none; and
pickling, since spawned workers receive configs and rule tables.
"""

import pickle

import pytest

from cgeckit.core import POSTag, TaggedSentence, Token
from cgeckit.generator import AugmentConfig, AugmentReport, GenConfig, GenerationReport
from cgeckit.lm import LMConfig, NGramModel
from cgeckit.metrics import ScoreParams
from cgeckit.resources import RuleResources, load_resources

# One instance of each class, with fields away from their defaults.
MAKE = {
    TaggedSentence: lambda: TaggedSentence(
        "他来", (Token("他", POSTag.PRON, 0, 1), Token("来", POSTag.VERB, 1, 2))
    ),
    ScoreParams: lambda: ScoreParams(1.0, 3, True),
    RuleResources: lambda: RuleResources(hostguest_markers=["对"], synonyms={"提高": ["增加"]}),
    LMConfig: lambda: LMConfig(2, 0.5),
    NGramModel: lambda: NGramModel(2, 0.5, frozenset("a"), {("a", "a"): 1}, {("a",): 1}),
    GenConfig: lambda: GenConfig(3, ["LackSubject", "LackObject"], 2, 2, {"LackSubject": 2.0}, True),
    AugmentConfig: lambda: AugmentConfig(0.5, 0.2, 0.2, 0.1, 4),
    GenerationReport: lambda: GenerationReport(1, 2, 3, {"LackSubject": 2}),
    AugmentReport: lambda: AugmentReport(1, 2, {"keep": 2}),
}
READ_ONLY = [TaggedSentence, ScoreParams, LMConfig, GenConfig, AugmentConfig]
CLASSES = list(MAKE)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_fields_name_the_constructor_parameters_in_order(cls):
    code = cls.__init__.__code__
    assert cls._fields == code.co_varnames[1 : code.co_argcount]


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_equality_is_field_equality_within_one_class(cls):
    one, two = MAKE[cls](), MAKE[cls]()
    assert one == two and not one != two
    # The same fields in an instance of another class are not equal.
    other = object.__new__(type("Other", (cls,), {}))
    vars(other).update(vars(one))
    assert one != other and other != one
    assert one != tuple(getattr(one, name) for name in cls._fields)


def test_equality_leaves_out_what_is_built_on_first_use():
    used, fresh = load_resources(), load_resources()
    used._mixed_index, used._collocation_index  # the lookup maps
    assert "_mixed_index" in vars(used) and "_mixed_index" not in vars(fresh)
    assert used == fresh
    config = GenConfig(enabled_rules=["LackSubject"])
    assert config._rule_pool == (("LackSubject",), (1.0,))
    assert config == GenConfig(enabled_rules=["LackSubject"])
    fields = {name: getattr(MAKE[RuleResources](), name) for name in RuleResources._fields}
    assert RuleResources(**{**fields, "causal_triggers": ["春天"]}) != MAKE[RuleResources]()


@pytest.mark.parametrize("cls", READ_ONLY, ids=lambda cls: cls.__name__)
def test_a_read_only_instance_refuses_assignment_and_deletion(cls):
    obj = MAKE[cls]()
    for name in cls._fields:
        value = getattr(obj, name)
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(obj, name, value)
        with pytest.raises(AttributeError):
            delattr(obj, name)
        assert getattr(obj, name) is value
    with pytest.raises(AttributeError):
        obj.new_attribute = 1


@pytest.mark.parametrize("cls", [cls for cls in READ_ONLY if cls is not GenConfig],
                         ids=lambda cls: cls.__name__)
def test_a_read_only_instance_hashes_by_its_fields(cls):
    assert hash(MAKE[cls]()) == hash(MAKE[cls]())
    assert len({MAKE[cls](), MAKE[cls]()}) == 1


@pytest.mark.parametrize("cls", sorted(set(CLASSES) - set(READ_ONLY), key=lambda cls: cls.__name__),
                         ids=lambda cls: cls.__name__)
def test_a_mutable_instance_takes_assignment_and_no_hash(cls):
    obj = MAKE[cls]()
    name = cls._fields[0]
    setattr(obj, name, getattr(obj, name))
    with pytest.raises(TypeError):
        hash(obj)


def test_each_instance_given_no_table_gets_a_new_empty_one():
    for make, names in [
        (RuleResources, RuleResources._fields),
        (GenerationReport, ["rule_fires"]),
        (AugmentReport, ["op_counts"]),
        (lambda: NGramModel(2, 1.0, frozenset()), ["ngrams", "contexts"]),
        (GenConfig, ["rule_weights"]),
    ]:
        one, two = make(), make()
        for name in names:
            assert getattr(one, name) is not getattr(two, name), name
    assert RuleResources().synonyms == {} and RuleResources().mixed_patterns == []
    assert AugmentReport().op_counts == {"keep": 0, "insert": 0, "replace": 0, "delete": 0}
    assert GenConfig().rule_weights == {} and GenerationReport().rule_fires == {}


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_pickling_keeps_the_class_and_the_fields(cls):
    obj = MAKE[cls]()
    if cls is GenConfig:
        obj._rule_pool  # a cached value travels along
    copy = pickle.loads(pickle.dumps(obj, pickle.HIGHEST_PROTOCOL))
    assert type(copy) is cls and copy == obj
    assert vars(copy) == vars(obj)
    if cls in READ_ONLY:
        with pytest.raises(AttributeError):
            setattr(copy, cls._fields[0], None)
