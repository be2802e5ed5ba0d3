package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
)

// Tabular is implemented by every experiment result: a title, a header
// row, and data rows — the same content String renders, in
// machine-readable form for plotting.
type Tabular interface {
	Table() (title string, header []string, rows [][]string)
}

// WriteCSV writes the result's table as CSV (header first, no title row).
func WriteCSV(w io.Writer, t Tabular) error {
	_, header, rows := t.Table()
	cw := csv.NewWriter(w)
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, row := range rows {
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// render is the shared String implementation over Table.
func render(t Tabular) string {
	title, header, rows := t.Table()
	return renderTable(title, header, rows)
}

// Table implementations for every result type. Numbers are emitted with
// the same formatting the text tables use.

// Table returns the Table 2 contents.
func (t *Table2) Table() (string, []string, [][]string) {
	rows := make([][]string, len(t.Rows))
	for i, r := range t.Rows {
		rows[i] = []string{r.Model, pct(r.Accuracy), secs(r.Elapsed)}
	}
	return fmt.Sprintf("Table 2: model comparison (scale=%s)", t.Scale),
		[]string{"model", "correctly_labeled", "response_time"}, rows
}

// Table returns the Table 3 contents.
func (t *Table3) Table() (string, []string, [][]string) {
	rows := make([][]string, len(t.Rows))
	for i, r := range t.Rows {
		rows[i] = []string{r.Family, itoa(r.Size), pct(r.Precision), pct(r.Recall)}
	}
	return fmt.Sprintf("Table 3: per-family precision/recall (scale=%s)", t.Scale),
		[]string{"family", "size", "precision", "recall"}, rows
}

// Table returns the Table 4 contents.
func (t *Table4) Table() (string, []string, [][]string) {
	rows := make([][]string, len(t.Rows))
	for i, r := range t.Rows {
		rows[i] = []string{r.Language, pct(r.Precision), pct(r.Recall)}
	}
	return fmt.Sprintf("Table 4: language clustering (scale=%s)", t.Scale),
		[]string{"language", "precision", "recall"}, rows
}

// Table returns the Figure 4 contents.
func (f *Figure4) Table() (string, []string, [][]string) {
	rows := make([][]string, len(f.Rows))
	for i, r := range f.Rows {
		budget := "unlimited"
		if r.MaxPSTBytes > 0 {
			budget = bytesMB(r.MaxPSTBytes)
		}
		rows[i] = []string{budget, pct(r.Precision), pct(r.Recall), secs(r.Elapsed)}
	}
	return fmt.Sprintf("Figure 4: effect of PST memory budget (scale=%s)", f.Scale),
		[]string{"pst_budget", "precision", "recall", "response_time"}, rows
}

// Table returns the Figure 5 contents.
func (f *Figure5) Table() (string, []string, [][]string) {
	rows := make([][]string, len(f.Rows))
	for i, r := range f.Rows {
		rows[i] = []string{itoa(r.SampleFactor), pct(r.Precision), pct(r.Recall), secs(r.Elapsed)}
	}
	return fmt.Sprintf("Figure 5: effect of sample factor m/k (scale=%s)", f.Scale),
		[]string{"m_over_k", "precision", "recall", "response_time"}, rows
}

// Table returns the Table 5 contents.
func (t *Table5) Table() (string, []string, [][]string) {
	rows := make([][]string, len(t.Rows))
	for i, r := range t.Rows {
		rows[i] = []string{itoa(r.InitialK), itoa(r.FinalK), secs(r.Elapsed), pct(r.Precision), pct(r.Recall)}
	}
	return fmt.Sprintf("Table 5: effect of initial cluster count (scale=%s, true k=%d)", t.Scale, t.TrueClusters),
		[]string{"init_k", "final_k", "time", "precision", "recall"}, rows
}

// Table returns the Table 6 contents.
func (t *Table6) Table() (string, []string, [][]string) {
	rows := make([][]string, len(t.Rows))
	for i, r := range t.Rows {
		rows[i] = []string{f2(r.InitialT), f2(r.FinalT), secs(r.Elapsed), pct(r.Precision), pct(r.Recall)}
	}
	return fmt.Sprintf("Table 6: effect of initial similarity threshold (scale=%s)", t.Scale),
		[]string{"init_t", "final_t", "time", "precision", "recall"}, rows
}

// Table returns the order study contents.
func (o *OrderStudy) Table() (string, []string, [][]string) {
	rows := make([][]string, len(o.Rows))
	for i, r := range o.Rows {
		rows[i] = []string{r.Order, pct(r.Accuracy), secs(r.Elapsed)}
	}
	return fmt.Sprintf("Order study (§6.3): sequence examination order (scale=%s)", o.Scale),
		[]string{"order", "accuracy", "response_time"}, rows
}

// Table returns the Figure 6 contents for one axis.
func (f *Figure6) Table() (string, []string, [][]string) {
	rows := make([][]string, len(f.Rows))
	for i, r := range f.Rows {
		rows[i] = []string{itoa(r.X), secs(r.Elapsed), pct(r.Accuracy)}
	}
	return fmt.Sprintf("Figure 6 (%s axis): scalability (scale=%s)", f.Axis, f.Scale),
		[]string{f.Axis, "response_time", "accuracy"}, rows
}

// Table returns the reclustering benchmark contents.
func (r *ReclusterBench) Table() (string, []string, [][]string) {
	rows := make([][]string, len(r.Rows))
	for i, row := range r.Rows {
		cache := "on"
		if row.CacheOff {
			cache = "off"
		}
		rows[i] = []string{itoa(row.Workers), cache, itoa(row.Iterations),
			itoa(row.CacheHits), itoa(row.CacheMisses), pct(row.Accuracy), secs(row.Elapsed)}
	}
	return fmt.Sprintf("Recluster benchmark: similarity cache × workers (scale=%s)", r.Scale),
		[]string{"workers", "cache", "iterations", "cache_hits", "cache_misses", "accuracy", "time"}, rows
}

// Table returns the similarity benchmark contents.
func (s *SimilarityBench) Table() (string, []string, [][]string) {
	rows := make([][]string, len(s.Rows))
	for i, r := range s.Rows {
		rows[i] = []string{itoa(r.AlphabetSize), itoa(r.SeqLen), itoa(r.TreeNodes),
			micros(r.TreePerScan), micros(r.SnapshotPerScan), f2(r.Speedup),
			f2(r.AllocsPerScan), itoa(r.SnapshotBytes)}
	}
	return fmt.Sprintf("Similarity benchmark: tree scan vs compiled snapshot (scale=%s)", s.Scale),
		[]string{"alphabet", "seq_len", "tree_nodes", "tree_us_per_scan", "snapshot_us_per_scan", "speedup",
			"allocs_per_scan", "snapshot_bytes"}, rows
}
