/**
 * @file
 * ltp-no-unordered-container: deterministic iteration only.
 *
 * Bans declaring std::unordered_{map,set,multimap,multiset} in model
 * code. Their iteration order depends on hash seeding, bucket counts,
 * and allocation history — any stats dump, message emission, or
 * scheduling decision derived from iterating one differs run to run
 * and machine to machine.
 *
 * Sanctioned idiom: ltp::FlatMap / ltp::FlatSet (sim/flat_map.hh) —
 * open addressing with deterministic iteration — or std::map/std::set
 * where ordering is part of the semantics (e.g. the ingress reorder
 * buffer).
 */

#ifndef LTP_TOOLS_LTP_TIDY_NO_UNORDERED_CONTAINER_CHECK_HH
#define LTP_TOOLS_LTP_TIDY_NO_UNORDERED_CONTAINER_CHECK_HH

#include "clang-tidy/ClangTidyCheck.h"

namespace ltp_tidy
{

class NoUnorderedContainerCheck : public clang::tidy::ClangTidyCheck
{
  public:
    NoUnorderedContainerCheck(llvm::StringRef name,
                              clang::tidy::ClangTidyContext *context)
        : ClangTidyCheck(name, context)
    {
    }

    void registerMatchers(clang::ast_matchers::MatchFinder *finder) override;
    void
    check(const clang::ast_matchers::MatchFinder::MatchResult &result)
        override;
};

} // namespace ltp_tidy

#endif // LTP_TOOLS_LTP_TIDY_NO_UNORDERED_CONTAINER_CHECK_HH
