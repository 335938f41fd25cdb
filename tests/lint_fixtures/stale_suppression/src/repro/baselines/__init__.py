from .demo import DemoMatcher

ALL_BASELINES = {"Demo": DemoMatcher}
