"""Frozen value records, built without generated code.

``record`` takes a class's own annotations, in order, as its fields and the
class attributes of those names as their defaults.  It adds each of these
that the class does not define itself: ``__init__`` (fields by position or
keyword, then ``__post_init__``), ``__repr__``, ``__eq__`` and ``__hash__``
over the field tuple, and ``__setattr__``/``__delattr__`` that refuse every
change.  A class that declares ``__slots__`` also gets ``__getstate__`` and
``__setstate__``, so that copy and pickle can restore it.  The field names
are the class attribute ``_fields``.
"""

from operator import attrgetter

_MISSING = object()


def _refuse_set(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _refuse_delete(self, name):
    raise AttributeError(f"cannot delete field {name!r}")


def record(cls):
    owner, names = cls.__name__, tuple(cls.__annotations__)
    # attrgetter returns a tuple only for two or more names
    assert len(names) >= 2, f"{owner}: a record needs at least two fields"
    size = len(names)
    slots = vars(cls).get("__slots__", ())
    # a slot's class attribute is its descriptor, never a default
    has_default = [n in vars(cls) and n not in slots for n in names]
    required = has_default.count(False)
    if any(has_default[:required]):
        raise TypeError(f"{owner}: a field without a default follows a default")
    template = [_MISSING] * required + [vars(cls)[n] for n in names[required:]]
    index = {n: i for i, n in enumerate(names)}
    values = attrgetter(*names)
    post_init = getattr(cls, "__post_init__", None)
    put = object.__setattr__

    def bind(args, kwargs):
        """The field values of a call in field order; TypeError where a
        function with these parameters would raise it."""
        if len(args) > size:
            raise TypeError(f"{owner}() takes {size} arguments but {len(args)} were given")
        bound = [*args, *template[len(args):]]
        for name, value in kwargs.items():
            i = index.get(name)
            if i is None:
                raise TypeError(f"{owner}() got an unexpected keyword argument {name!r}")
            if i < len(args):
                raise TypeError(f"{owner}() got multiple values for argument {name!r}")
            bound[i] = value
        for i in range(len(args), required):
            if bound[i] is _MISSING:
                raise TypeError(f"{owner}() missing required argument {names[i]!r}")
        return bound

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != size:
            args = bind(args, kwargs)
        for name, value in zip(names, args):
            put(self, name, value)
        if post_init is not None:
            post_init(self)

    def __repr__(self):
        body = ", ".join(f"{n}={v!r}" for n, v in zip(names, values(self)))
        return f"{type(self).__qualname__}({body})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return values(self) == values(other)
        return NotImplemented

    def __hash__(self):
        return hash(values(self))

    def __getstate__(self):
        return values(self)

    def __setstate__(self, state):
        for name, value in zip(names, state):
            put(self, name, value)

    methods = {"__init__": __init__, "__repr__": __repr__, "__eq__": __eq__,
               "__setattr__": _refuse_set, "__delattr__": _refuse_delete}
    if slots:
        methods.update(__getstate__=__getstate__, __setstate__=__setstate__)
    for name, method in methods.items():
        if name not in vars(cls):
            setattr(cls, name, method)
    if vars(cls).get("__hash__") is None:
        cls.__hash__ = __hash__
    cls._fields = names
    return cls
