"""The package's one immutable value base.

It imports nothing from the package, so ``graphs`` and ``exactmath`` can
both stand on it.
"""


class _Frozen:
    """Immutable value over ``__slots__``.

    - A constructor validates its arguments and stores them with
      ``_fill``, in ``__slots__`` order; ``_fill`` is the package's only
      ``object.__setattr__``.
    - ``_key()`` is the slot values in that order.  Equality, hashing,
      copying and pickling go through it, so every constructor takes its
      fields in ``__slots__`` order.
    - By default a value equals only values of its own class.  The number
      types (``KPolynomial``, ``RationalFunction``, ``QuadExt``) override
      ``__eq__`` to also equal rationals, and then they must hash as the
      value they equal.

    The package writes its value types out like this, with no generated
    methods: every command is a fresh process, and generating a class's
    methods compiles them at import.
    """

    __slots__ = ()

    def _fill(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __reduce__(self):
        return type(self), self._key()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"
