package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"repro/internal/core"
	"repro/internal/par"
)

// maxBatchItems caps one batch request; larger workloads should shard
// across requests so a single body cannot monopolize the pool forever.
const maxBatchItems = 256

// batchItem is one pipeline request inside a batch: the shared envelope
// plus the operation selecting the endpoint logic to run it through.
type batchItem struct {
	// Op selects the operation: "validate", "convert", "pnr", or "stats".
	// ("render" is excluded: its SVG body is not JSON-embeddable.)
	Op string `json:"op"`
	request
}

type batchRequest struct {
	Items []batchItem `json:"items"`
}

// batchResult is one item's outcome, in the same slot order as the
// request. Exactly one of Body and Error is set; Status carries the HTTP
// status the item would have received as a standalone request.
type batchResult struct {
	Op     string          `json:"op"`
	Status int             `json:"status"`
	Cache  string          `json:"cache,omitempty"`
	Body   json.RawMessage `json:"body,omitempty"`
	Error  *errorBody      `json:"error,omitempty"`
}

type batchResponse struct {
	Items []batchResult `json:"items"`
}

// handleBatch fans a list of pipeline requests through the worker pool.
// Items run concurrently (at most the gate's worker count at once) but
// results land in request order, and each item takes exactly the path its
// standalone endpoint would: the same seed derivation, the same result
// cache (identical items inside one batch coalesce to a single
// computation), the same admission gate and load shedding. Item failures
// are values in the response — the batch itself is a 200 unless the
// envelope is malformed.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) error {
	body, err := requestBody(r)
	if err != nil {
		return badBody("batch body", err)
	}
	var breq batchRequest
	if err := parseBatchRequest(body, &breq); err != nil {
		return badBody("batch body", err)
	}
	if len(breq.Items) == 0 {
		return fmt.Errorf("%w: batch requires at least one item", errBadRequest)
	}
	if len(breq.Items) > maxBatchItems {
		return fmt.Errorf("%w: batch of %d items exceeds the limit of %d", errBadRequest, len(breq.Items), maxBatchItems)
	}
	ctx := r.Context()
	results := make([]batchResult, len(breq.Items))
	// Item errors are captured in the result slots; the loop's only job
	// is bounded, order-stable fan-out.
	par.ForEach(s.gate.Workers(), len(breq.Items), func(i int) {
		results[i] = s.runBatchItem(ctx, &breq.Items[i])
	})
	return writeJSON(w, r, http.StatusOK, batchResponse{Items: results})
}

// parseBatchRequest decodes the batch envelope with json.Decoder
// semantics (see parseRequest). Each item flattens the shared request
// envelope plus its "op" member, exactly as the embedded-struct
// reflective decoding did.
func parseBatchRequest(data []byte, breq *batchRequest) error {
	p := core.NewParser(data)
	defer p.Release()
	if p.AtEOF() {
		return io.EOF
	}
	if p.TryNull() {
		return nil
	}
	if err := p.BeginObject(); err != nil {
		return err
	}
	first := true
	for {
		key, ok, err := p.NextKey(&first)
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		if !core.FoldEq(key, "ITEMS") {
			if err := p.SkipValue(); err != nil {
				return err
			}
			continue
		}
		if p.TryNull() {
			breq.Items = nil
			continue
		}
		if err := p.BeginArray(); err != nil {
			return err
		}
		items := breq.Items[:0]
		afirst := true
		for {
			more, err := p.ArrayNext(&afirst)
			if err != nil {
				return err
			}
			if !more {
				break
			}
			items = append(items, batchItem{})
			if err := parseBatchItem(p, &items[len(items)-1]); err != nil {
				return err
			}
		}
		if items == nil {
			items = make([]batchItem, 0)
		}
		breq.Items = items
	}
}

func parseBatchItem(p *core.Parser, item *batchItem) error {
	if p.TryNull() {
		return nil
	}
	if err := p.BeginObject(); err != nil {
		return err
	}
	first := true
	for {
		key, ok, err := p.NextKey(&first)
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		if core.FoldEq(key, "OP") {
			if err := envString(p, &item.Op); err != nil {
				return err
			}
			continue
		}
		if err := applyRequestField(p, key, &item.request); err != nil {
			return err
		}
	}
}

// runBatchItem executes one item through the shared operation table and
// cached-execution path, folding failures into the result value.
func (s *Server) runBatchItem(ctx context.Context, item *batchItem) batchResult {
	fail := func(err error) batchResult {
		body := newErrorBody(ctx, err)
		return batchResult{Op: item.Op, Status: httpStatus(err), Error: &body}
	}
	op, err := operationByName(item.Op)
	if err != nil {
		return fail(err)
	}
	if !op.Batchable {
		return fail(fmt.Errorf("%w: op %q is not batchable (its body does not embed in JSON); call its endpoint or submit a job", errBadRequest, item.Op))
	}
	if err := op.validate(&item.request); err != nil {
		return fail(err)
	}
	ent, outcome, err := s.runCached(ctx, op, &item.request)
	if err != nil {
		return fail(err)
	}
	return batchResult{Op: item.Op, Status: http.StatusOK, Cache: outcome, Body: json.RawMessage(ent.Body)}
}
