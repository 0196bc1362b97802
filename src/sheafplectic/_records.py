"""Record classes: the value methods of a plain data class, built from
closures.

``record`` gives a class what ``dataclasses.dataclass`` would for the
options this package uses, with the same repr format, but without
generating and executing source text, so importing the package loads
neither ``dataclasses`` nor the modules it pulls in.  The fields are the
class's own annotations, in order; a class attribute of the same name is
the field's default.  A method written in the class body is kept, which is
how the records built most often supply a faster ``__init__``; a record
with ``__slots__`` must write its own, because its slots would read as
defaults.  A frozen record that writes ``__eq__`` must write ``__hash__``
too: Python sets a class's ``__hash__`` to None when its body defines
``__eq__`` alone.
"""

from operator import attrgetter

_set = object.__setattr__


def _frozen_set(self, name, value):
    raise AttributeError("cannot assign to field %r" % name)


def _frozen_delete(self, name):
    raise AttributeError("cannot delete field %r" % name)


def record(cls=None, *, frozen=False):
    """Add ``__init__``, ``__repr__``, ``__eq__`` and ``__hash__`` to ``cls``.

    ``__init__`` takes the fields positionally or by name and then calls
    ``__post_init__`` if the class has one.  Records are equal when they are
    of the same class and their fields are equal.  A ``frozen`` record
    refuses assignment and deletion and hashes as the tuple of its fields;
    any other record is unhashable.
    """
    if cls is None:
        return lambda c: record(c, frozen=frozen)
    names = tuple(cls.__dict__.get("__annotations__", ()))
    if len(names) > 1:
        key = attrgetter(*names)
    elif names:
        get = attrgetter(names[0])
        key = lambda self: (get(self),)  # noqa: E731
    else:
        key = lambda self: ()  # noqa: E731
    has_post_init = hasattr(cls, "__post_init__")

    def __init__(self, *args, **kwargs):
        if len(args) > len(names):
            raise TypeError("%s() takes %d arguments, got %d"
                            % (cls.__name__, len(names), len(args)))
        values = dict(zip(names, args))
        for name, value in kwargs.items():
            if name not in names or name in values:
                raise TypeError("%s() got an unexpected or repeated argument %r"
                                % (cls.__name__, name))
            values[name] = value
        for name in names:
            if name in values:
                _set(self, name, values[name])
            elif name in cls.__dict__:
                _set(self, name, cls.__dict__[name])
            else:
                raise TypeError("%s() missing argument %r" % (cls.__name__, name))
        if has_post_init:
            self.__post_init__()

    def __repr__(self):
        return "%s(%s)" % (self.__class__.__qualname__, ", ".join(
            "%s=%r" % (name, getattr(self, name)) for name in names))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self):
        return hash(key(self))

    methods = {"__init__": __init__, "__repr__": __repr__, "__eq__": __eq__,
               "__hash__": __hash__ if frozen else None}
    if frozen:
        methods.update(__setattr__=_frozen_set, __delattr__=_frozen_delete)
    for name, method in methods.items():
        if name not in cls.__dict__:
            setattr(cls, name, method)
    return cls
