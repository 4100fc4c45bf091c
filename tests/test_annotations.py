"""Every annotation of the package resolves: ``typing.get_type_hints`` succeeds on each
public function of ``zpgenus``, on-demand names included, and on each function, method
and property of its public classes, inherited ones included."""
import inspect
import typing

import zpgenus


def _callables():
    for name in dir(zpgenus):
        if name.startswith("_"):
            continue
        obj = getattr(zpgenus, name)
        if inspect.isfunction(obj):
            yield name, obj
        elif inspect.isclass(obj):
            for attr in dir(obj):
                member = inspect.getattr_static(obj, attr)
                if isinstance(member, (classmethod, staticmethod)):
                    member = member.__func__
                elif isinstance(member, property):
                    member = member.fget
                if inspect.isfunction(member):
                    yield f"{name}.{attr}", member


def test_annotations_resolve():
    checked, unresolved = 0, {}
    for name, fn in _callables():
        checked += 1
        try:
            typing.get_type_hints(fn)
        except NameError as exc:
            unresolved[name] = str(exc)
    assert not unresolved
    assert checked > 200  # the on-demand names and the classes' methods were reached
