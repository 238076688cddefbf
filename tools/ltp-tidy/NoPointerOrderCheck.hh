/**
 * @file
 * ltp-no-pointer-order: address-space layout must not reach results.
 *
 * Bans, in model code:
 *  - ordering comparisons (<, >, <=, >=) between raw pointers,
 *  - std::less/std::greater (and _equal) instantiated on pointer types,
 *  - std::map/std::set keyed on pointers with the default comparator,
 *  - ltp::FlatMap/FlatSet keyed on pointers (the probe sequence hashes
 *    the address),
 *  - std::hash<T*> and pointer-to-integer casts (the hashing idiom).
 *
 * Heap addresses differ run to run (ASLR, allocation history), so any
 * container order, tie-break, or hash derived from one silently breaks
 * the byte-identical-dump contract.
 *
 * Sanctioned idiom: key and order on stable model identifiers (NodeId,
 * block address, sequence number) — every model object already has
 * one. Pointer *equality* is fine and not flagged.
 */

#ifndef LTP_TOOLS_LTP_TIDY_NO_POINTER_ORDER_CHECK_HH
#define LTP_TOOLS_LTP_TIDY_NO_POINTER_ORDER_CHECK_HH

#include "clang-tidy/ClangTidyCheck.h"

namespace ltp_tidy
{

class NoPointerOrderCheck : public clang::tidy::ClangTidyCheck
{
  public:
    NoPointerOrderCheck(llvm::StringRef name,
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

#endif // LTP_TOOLS_LTP_TIDY_NO_POINTER_ORDER_CHECK_HH
