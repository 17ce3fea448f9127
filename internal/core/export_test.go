package core

// ColWidthForTest re-exports the layout column pitch for the external
// test package (kept external so it can import rts and workloads without
// cycling through ggp, which imports core).
const ColWidthForTest = colWidth
