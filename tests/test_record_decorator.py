"""The record decorator on classes the package does not define: partial
keyword calls, slotted copies, and a default before a required field."""

import copy
import pickle

import pytest

from ietpc._record import record


@record
class Pair:
    __slots__ = ("a", "b")

    a: int
    b: int


def test_keyword_calls_name_the_missing_field():
    assert Pair(b=2, a=1) == Pair(1, 2)
    with pytest.raises(TypeError, match="missing required argument 'a'"):
        Pair(b=2)
    with pytest.raises(TypeError, match="missing required argument 'b'"):
        Pair(1)
    with pytest.raises(TypeError, match="unexpected keyword argument 'c'"):
        Pair(a=1, c=2)


def test_slotted_record_copies_and_pickles():
    pair = Pair(1, 2)
    assert not hasattr(pair, "__dict__")
    for clone in (copy.copy(pair), copy.deepcopy(pair), pickle.loads(pickle.dumps(pair))):
        assert clone == pair and clone is not pair
    with pytest.raises(AttributeError):
        pair.c = 3


def test_a_default_before_a_required_field_is_refused():
    with pytest.raises(TypeError, match="follows a default"):
        @record
        class Bad:
            a: int = 0
            b: int
