// Global transaction identity for the distributed testbed.

#ifndef CARAT_TXN_IDS_H_
#define CARAT_TXN_IDS_H_

#include <cstdint>

namespace carat::txn {

/// Globally unique transaction id (also used as the lock-manager TxnId at
/// every node the transaction touches).
using GlobalTxnId = std::uint64_t;

}  // namespace carat::txn

#endif  // CARAT_TXN_IDS_H_
