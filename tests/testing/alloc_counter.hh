/**
 * @file
 * Heap-allocation counter for tests that assert a path allocates
 * nothing. Linking testing/alloc_counter.cc into a test binary
 * replaces the global operator new with a counting version; the
 * replacement lives in its own translation unit so the compiler
 * never inlines it into code whose allocations it cannot see.
 */

#ifndef GPSCHED_TESTS_TESTING_ALLOC_COUNTER_HH
#define GPSCHED_TESTS_TESTING_ALLOC_COUNTER_HH

namespace gpsched::testing
{

/** Global operator new calls so far, in every thread. */
long heapAllocations();

} // namespace gpsched::testing

#endif // GPSCHED_TESTS_TESTING_ALLOC_COUNTER_HH
