#include "lo/ufile_lo.h"

namespace pglo {

Status UfileLo::CreateStorage(const DbContext& ctx, const std::string& path) {
  return ctx.ufs->Create(path).status();
}

UfileLo::UfileLo(const DbContext& ctx, std::string path, StorageKind kind)
    : ctx_(ctx), path_(std::move(path)), kind_(kind) {
  if (ctx_.stats != nullptr) {
    std::string prefix =
        kind_ == StorageKind::kUserFile ? "lo.ufile" : "lo.pfile";
    c_reads_ = ctx_.stats->counter(prefix + ".reads");
    c_writes_ = ctx_.stats->counter(prefix + ".writes");
    c_bytes_read_ = ctx_.stats->counter(prefix + ".bytes_read");
    c_bytes_written_ = ctx_.stats->counter(prefix + ".bytes_written");
    h_read_ = ctx_.stats->histogram(prefix + ".read_ns");
    h_write_ = ctx_.stats->histogram(prefix + ".write_ns");
    span_read_name_ = prefix + ".read";
    span_write_name_ = prefix + ".write";
  }
}

Result<uint32_t> UfileLo::Inode() {
  if (!inode_known_) {
    PGLO_ASSIGN_OR_RETURN(cached_inode_, ctx_.ufs->Lookup(path_));
    inode_known_ = true;
  }
  return cached_inode_;
}

Result<size_t> UfileLo::Read(Transaction* txn, uint64_t off, size_t n,
                             uint8_t* buf) {
  (void)txn;  // file implementations ignore transactions (§6.1)
  TraceSpan span(ctx_.stats, h_read_, span_read_name_);
  StatInc(c_reads_);
  PGLO_ASSIGN_OR_RETURN(uint32_t ino, Inode());
  PGLO_ASSIGN_OR_RETURN(size_t got, ctx_.ufs->ReadAt(ino, off, n, buf));
  StatAdd(c_bytes_read_, got);
  return got;
}

Status UfileLo::Write(Transaction* txn, uint64_t off, Slice data) {
  // The bytes bypass the heap, so only the XID tells Commit to run the
  // UFS force hook before declaring them committed.
  txn->AssignXid();
  TraceSpan span(ctx_.stats, h_write_, span_write_name_);
  StatInc(c_writes_);
  StatAdd(c_bytes_written_, data.size());
  PGLO_ASSIGN_OR_RETURN(uint32_t ino, Inode());
  return ctx_.ufs->WriteAt(ino, off, data);
}

Result<uint64_t> UfileLo::Size(Transaction* txn) {
  (void)txn;
  PGLO_ASSIGN_OR_RETURN(uint32_t ino, Inode());
  return ctx_.ufs->FileSize(ino);
}

Status UfileLo::Truncate(Transaction* txn, uint64_t size) {
  txn->AssignXid();  // as in Write: commit must force the UFS
  PGLO_ASSIGN_OR_RETURN(uint32_t ino, Inode());
  return ctx_.ufs->Truncate(ino, size);
}

Status UfileLo::Destroy(Transaction* txn) {
  (void)txn;
  inode_known_ = false;
  return ctx_.ufs->Remove(path_);
}

Result<LargeObject::StorageFootprint> UfileLo::Footprint() {
  StorageFootprint fp;
  PGLO_ASSIGN_OR_RETURN(uint32_t ino, Inode());
  // Figure 1 reports the logical size for the file implementations: "the
  // inodes and indirect blocks are owned by the directory containing the
  // file, and not the file itself" (§9.1).
  PGLO_ASSIGN_OR_RETURN(fp.data_bytes, ctx_.ufs->LogicalBytes(ino));
  return fp;
}

}  // namespace pglo
