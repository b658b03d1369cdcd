/**
 * @file
 * AF020 seed outside the controllers' own files, where AF013 does not
 * look: a core holding the backside's Miss Status Row directly would
 * read and mutate miss state around the fc_to_bc channel. Never
 * compiled.
 */

#ifndef AFLINT_FIXTURE_SIM_CORE_HH
#define AFLINT_FIXTURE_SIM_CORE_HH

namespace fixture {

class MissStatusRow;

struct SimCore {
    // AF020 (and not AF013): a frontside-side component holding a
    // backside-owned structure by pointer.
    MissStatusRow *msr = nullptr;
};

} // namespace fixture

#endif // AFLINT_FIXTURE_SIM_CORE_HH
