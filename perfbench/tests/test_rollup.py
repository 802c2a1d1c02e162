"""Tests of the profile rollup and the statistics behind the bounds.

    python3 -m unittest discover -s perfbench/tests
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
import rollup  # noqa: E402
import run  # noqa: E402

HEAP_INVOKE = (
    "void rc::sim::InlineFunction<void ()>::heapInvoke<rc::server::MasterService"
    "::guard<rc::server::MasterService::onRead(rc::net::RpcRequest const&, "
    "rc::sim::InlineFunction<void (rc::net::RpcResponse)>)::{lambda()#1}> >(void*)")
INLINE_MANAGE = (
    "void rc::sim::InlineFunction<void ()>::inlineManage<rc::net::RpcSystem::"
    "call(int, int, int, rc::net::RpcRequest, long, rc::sim::InlineFunction<void "
    "(rc::net::RpcResponse)>)::{lambda()#1}>(rc::sim::InlineFunction<void ()>::Op, "
    "void*, void*)")

FLAT = """Flat profile:

Each sample counts as 0.01 seconds.
  %   cumulative   self              self     total
 time   seconds   seconds    calls   s/call   s/call  name
 50.00      0.50     0.50  4666705     0.00     0.00  rc::hash::ObjectMap::get(rc::hash::Key const&) const
 20.00      0.70     0.20  4683400     0.00     0.00  rc::sim::Simulation::popAndRunOne(long)
 10.00      0.80     0.10   633539     0.00     0.00  {heap}
  5.00      0.85     0.05                             std::vector<int, std::allocator<int> >::_M_default_append(unsigned long)
  5.00      0.90     0.05                             frame_dummy
 10.00      1.00     0.10       12     0.00     0.00  std::_Sp_counted_ptr_inplace<rc::log::Segment, std::allocator<void>, (__gnu_cxx::_Lock_policy)2>::_M_dispose()
""".replace("{heap}", HEAP_INVOKE)


class ModuleOf(unittest.TestCase):
    def check(self, name, module):
        self.assertEqual(rollup.module_of(name), module, name)

    def test_namespace_maps_to_module(self):
        self.check("rc::hash::ObjectMap::get(rc::hash::Key const&) const", "hash")
        self.check("rc::sim::Simulation::popAndRunOne(long)", "sim")
        self.check("rc::coordinator::TabletMap::lookup(unsigned long, unsigned long) const",
                   "coordinator")
        self.check("rc::server::(anonymous namespace)::helper(int)", "server")

    def test_lambda_belongs_to_its_enclosing_function(self):
        self.check("rc::server::MasterService::onRead(rc::net::RpcRequest const&, "
                   "rc::sim::InlineFunction<void (rc::net::RpcResponse)>)::{lambda()#1}"
                   "::operator()() const", "server")

    def test_template_function_return_type_is_not_the_owner(self):
        self.check("rc::log::LogRef rc::server::relocate<int>(rc::log::LogRef, int)", "server")

    def test_operators_do_not_confuse_brackets(self):
        self.check("rc::sim::operator<(rc::sim::EventKey const&, rc::sim::EventKey const&)",
                   "sim")
        self.check("rc::obs::operator<<(std::ostream&, rc::obs::Span const&)", "obs")

    def test_inline_function_goes_to_the_callable_module(self):
        self.check(HEAP_INVOKE, "server")
        self.check(INLINE_MANAGE, "net")

    def test_nested_wrappers_go_to_the_innermost_module(self):
        self.check("void rc::sim::InlineFunction<void (bool)>::heapInvoke<rc::node::Disk::"
                   "submit(int)::{lambda()#1}::operator()()::Wrap<rc::log::Cleaner::"
                   "clean(long)::{lambda()#2}> >(void*)", "log")

    def test_inline_function_without_rc_callable_is_sim(self):
        self.check("void rc::sim::InlineFunction<void ()>::inlineInvoke<main::{lambda()#1}>"
                   "(void*)", "sim")

    def test_std_frames_follow_their_rc_template_arguments(self):
        self.check("std::_Sp_counted_ptr_inplace<rc::log::Segment, std::allocator<void>, "
                   "(__gnu_cxx::_Lock_policy)2>::_M_dispose()", "log")
        self.check("std::__detail::_Map_base<rc::hash::Key, std::pair<rc::hash::Key const, "
                   "rc::server::RecoveryTask::Staged>, std::allocator<std::pair<rc::hash::Key "
                   "const, rc::server::RecoveryTask::Staged> > >::operator[](rc::hash::Key "
                   "const&)", "server")

    def test_unattributed_frames_are_other(self):
        for name in ("main", "frame_dummy", "rcbench::readCounters(rc::core::Cluster&)",
                     "std::vector<int, std::allocator<int> >::_M_default_append(unsigned long)",
                     "rc::fault::FaultInjector::arm()"):
            self.check(name, rollup.OTHER)


class Rollup(unittest.TestCase):
    def test_parse_flat_reads_rows_with_and_without_call_counts(self):
        rows = rollup.parse_flat(FLAT)
        self.assertEqual(len(rows), 6)
        self.assertEqual(rows[0], (0.5, "rc::hash::ObjectMap::get(rc::hash::Key const&) const"))
        self.assertEqual(rows[3][1],
                         "std::vector<int, std::allocator<int> >::_M_default_append(unsigned long)")
        self.assertEqual(rows[2], (0.1, HEAP_INVOKE))

    def test_shares_sum_to_the_profile_and_other_collects_the_rest(self):
        rows = rollup.parse_flat(FLAT)
        per_module = rollup.rollup(rows)
        self.assertAlmostEqual(sum(per_module.values()), sum(s for s, _ in rows))
        self.assertAlmostEqual(sum(per_module.values()), 1.0)
        self.assertAlmostEqual(per_module["hash"], 0.5)
        self.assertAlmostEqual(per_module["sim"], 0.2)
        self.assertAlmostEqual(per_module["server"], 0.1)
        self.assertAlmostEqual(per_module["log"], 0.1)
        self.assertAlmostEqual(per_module[rollup.OTHER], 0.1)
        self.assertEqual(set(per_module), set(rollup.MODULES) | {rollup.OTHER})


class Statistics(unittest.TestCase):
    def test_median_and_quartiles(self):
        values = [10, 1, 9, 2, 8, 3, 7, 4, 6, 5]
        self.assertEqual(rollup.median(values), 5.5)
        # Exclusive method: positions (n + 1) * k / 4 = 2.75 and 8.25.
        self.assertEqual(rollup.quartiles(values), (2.75, 8.25))
        self.assertAlmostEqual(rollup.spread(values), (8.25 - 2.75) / 5.5)
        self.assertEqual(rollup.median([3.0, 1.0, 2.0]), 2.0)

    def test_constant_values_have_no_spread(self):
        self.assertEqual(rollup.spread([0.8] * 10), 0.0)

    def test_end_to_end_takes_medians_over_repetitions(self):
        def rep(setup, run_s, wall, rss):
            return {"result": {"timings": {"construct_s": 0.0, "bulk_load_s": setup,
                                           "configure_s": 0.0, "run_s": run_s}},
                    "wall_s": wall, "rss_mb": rss}
        reps = [rep(1.0, 0.5, 2.0, 100), rep(3.0, 0.7, 4.0, 300), rep(2.0, 0.6, 3.0, 200)]
        self.assertEqual(run.end_to_end(reps), {"setup_s": 2.0, "run_wall_s": 0.6,
                                                "total_wall_s": 3.0, "peak_rss_mb": 200})


if __name__ == "__main__":
    unittest.main()
