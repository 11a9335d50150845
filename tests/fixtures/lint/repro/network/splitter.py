"""R6 (deepcopy flavor): engine deep-copied inside a # repro-hot split.

A split on the hot path must not ``copy.deepcopy`` the engine: that walks
the *entire* object graph — immutable config, topology, route memos and
all — on every call. Copying only the mutable fields is O(live state).
"""

import copy


class ClassSplitter:
    def __init__(self, engine):
        self.engine = engine

    def split(self, members):  # repro-hot
        clone = copy.deepcopy(self.engine)
        clone.members = members
        return clone
