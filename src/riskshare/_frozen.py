"""Frozen value classes, built from closures.

Each appraisal is one short ``riskshare`` process. The standard library's
frozen data classes cost ``import riskshare.cli`` about 45 of its 115 ms cold
(CPython 3.11, 2 cores): 13 ms to import their module, mostly :mod:`inspect`,
and 1.1 ms for each of the 25 value classes, whose methods were built from
source text at every start.
"""

from operator import attrgetter


def frozen(cls):
    """Make ``cls`` an immutable record of the fields its body annotates, in order.

    A class attribute of a field's name is its default. ``__init__`` takes the
    fields by position or keyword, then calls ``__post_init__``, which may set
    a field with ``object.__setattr__``; a class's own ``__init__`` is kept.
    Instances of one class are equal, and hash alike, when their fields are.
    """
    names = tuple(cls.__annotations__)
    n, defaults = len(names), {name: cls.__dict__[name] for name in names if name in cls.__dict__}
    values, post_init = attrgetter(*names), getattr(cls, "__post_init__", None)

    def bind(args, kwargs):
        if len(args) > n:
            raise TypeError(f"{cls.__name__}() takes {n} positional arguments but {len(args)} were given")
        bound = list(args)
        for name in names[len(args):]:
            if name in kwargs:
                bound.append(kwargs.pop(name))
            elif name in defaults:
                bound.append(defaults[name])
            else:
                raise TypeError(f"{cls.__name__}() missing required argument {name!r}")
        if kwargs:
            raise TypeError(f"{cls.__name__}() got an unexpected or repeated keyword argument {next(iter(kwargs))!r}")
        return bound

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != n:
            args = bind(args, kwargs)
        self.__dict__.update(zip(names, args))
        if post_init is not None:
            post_init(self)

    def __eq__(self, other):
        return values(self) == values(other) if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(values(self))

    def __repr__(self):
        return f"{type(self).__qualname__}({', '.join(f'{name}={getattr(self, name)!r}' for name in names)})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    for method in (__init__, __eq__, __hash__, __repr__, __setattr__, __delattr__):
        if method.__name__ not in cls.__dict__:
            method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
            setattr(cls, method.__name__, method)
    return cls
