package chaos

// Site-name string constants. These are the single source of truth for
// the human-readable names of injection sites: chaos trace summaries
// (Site.String) and the obs telemetry labels (internal/obs) both build
// on these constants, so a rename here propagates to every consumer and
// the two vocabularies cannot drift apart.
const (
	SiteNameWordInsertProbe    = "word-insert-probe"
	SiteNameWordInsertClaim    = "word-insert-claim"
	SiteNameWordInsertMerge    = "word-insert-merge"
	SiteNameWordInsertDisplace = "word-insert-displace"
	SiteNameWordDeleteProbe    = "word-delete-probe"
	SiteNamePtrInsertProbe     = "ptr-insert-probe"
	SiteNamePtrInsertClaim     = "ptr-insert-claim"
	SiteNamePtrInsertMerge     = "ptr-insert-merge"
	SiteNamePtrInsertDisplace  = "ptr-insert-displace"
	SiteNamePtrDeleteProbe     = "ptr-delete-probe"
	SiteNameGrowRehash         = "grow-rehash"
	SiteNameParallelWorker     = "parallel-worker"
	SiteNameEpochAdmit         = "epoch-admit"
	SiteNameEpochFlush         = "epoch-flush"
	SiteNameEpochCancel        = "epoch-cancel"

	SiteNameCompactInsertProbe    = "compact-insert-probe"
	SiteNameCompactInsertClaim    = "compact-insert-claim"
	SiteNameCompactInsertMerge    = "compact-insert-merge"
	SiteNameCompactInsertDisplace = "compact-insert-displace"
	SiteNameCompactDeleteProbe    = "compact-delete-probe"
	SiteNameCompactCtrlCAS        = "compact-ctrl-cas"
)

// siteNames maps Site values to their names, in declaration order.
var siteNames = [NumSites]string{
	SiteWordInsertProbe:    SiteNameWordInsertProbe,
	SiteWordInsertClaim:    SiteNameWordInsertClaim,
	SiteWordInsertMerge:    SiteNameWordInsertMerge,
	SiteWordInsertDisplace: SiteNameWordInsertDisplace,
	SiteWordDeleteProbe:    SiteNameWordDeleteProbe,
	SitePtrInsertProbe:     SiteNamePtrInsertProbe,
	SitePtrInsertClaim:     SiteNamePtrInsertClaim,
	SitePtrInsertMerge:     SiteNamePtrInsertMerge,
	SitePtrInsertDisplace:  SiteNamePtrInsertDisplace,
	SitePtrDeleteProbe:     SiteNamePtrDeleteProbe,
	SiteGrowRehash:         SiteNameGrowRehash,
	SiteParallelWorker:     SiteNameParallelWorker,
	SiteEpochAdmit:         SiteNameEpochAdmit,
	SiteEpochFlush:         SiteNameEpochFlush,
	SiteEpochCancel:        SiteNameEpochCancel,

	SiteCompactInsertProbe:    SiteNameCompactInsertProbe,
	SiteCompactInsertClaim:    SiteNameCompactInsertClaim,
	SiteCompactInsertMerge:    SiteNameCompactInsertMerge,
	SiteCompactInsertDisplace: SiteNameCompactInsertDisplace,
	SiteCompactDeleteProbe:    SiteNameCompactDeleteProbe,
	SiteCompactCtrlCAS:        SiteNameCompactCtrlCAS,
}
