package api

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"strings"
)

// Client is a typed client for the server's HTTP surface. The model-scoped
// methods (InferModel, Models, ModelInfo, ModelStats) speak v2; the
// unscoped methods (Infer, Model, Stats) are shorthands for the server's
// default model via the v1 alias routes and remain fully supported — they
// are not deprecated, they simply cannot name a model.
type Client struct {
	// BaseURL is the server root, e.g. "http://localhost:8080".
	BaseURL string
	// HTTPClient is the transport; http.DefaultClient when nil.
	HTTPClient *http.Client
}

// NewClient builds a client for the given server root.
func NewClient(baseURL string) *Client {
	return &Client{BaseURL: strings.TrimRight(baseURL, "/")}
}

// Error is a non-2xx server reply.
type Error struct {
	// StatusCode is the HTTP status.
	StatusCode int
	// Message is the server's error body.
	Message string
	// Model is the model the failed call was scoped to; empty for calls on
	// the v1 default-model surface and for fleet-level calls.
	Model string
}

// Error implements error.
func (e *Error) Error() string {
	if e.Model != "" {
		return fmt.Sprintf("api: model %q: server returned %d: %s", e.Model, e.StatusCode, e.Message)
	}
	return fmt.Sprintf("api: server returned %d: %s", e.StatusCode, e.Message)
}

// IsBackpressure reports whether the error is the server shedding load
// (queue full, SLO admission, or deadline exceeded); such requests are
// retryable.
func (e *Error) IsBackpressure() bool {
	return e.StatusCode == http.StatusTooManyRequests ||
		e.StatusCode == http.StatusServiceUnavailable
}

func (c *Client) httpClient() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

// do issues one request and decodes the JSON reply into out. A non-nil
// body is sent as BinaryContentType. model annotates any *Error so callers
// can tell which model a fleet operation failed on.
func (c *Client) do(ctx context.Context, method, path, model string, body []byte, out any) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.BaseURL+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", BinaryContentType)
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return &Error{StatusCode: resp.StatusCode, Message: strings.TrimSpace(string(msg)), Model: model}
	}
	if out == nil {
		return nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("api: decoding response: %w", err)
	}
	return nil
}

// modelPath builds a /v2/models/{name}... route with the name escaped.
func modelPath(model, suffix string) string {
	return "/v2/models/" + url.PathEscape(model) + suffix
}

// Infer posts one or more flat row-major samples to the server's default
// model (v1 shorthand for InferModel with the default model's name).
func (c *Client) Infer(ctx context.Context, input []float32) (*InferResponse, error) {
	return c.infer(ctx, "/v1/infer", "", input)
}

// InferModel posts one or more flat row-major samples to a named model
// and returns per-task output rows.
func (c *Client) InferModel(ctx context.Context, model string, input []float32) (*InferResponse, error) {
	return c.infer(ctx, modelPath(model, "/infer"), model, input)
}

// infer posts input as the binary body: 4 little-endian bytes per value.
func (c *Client) infer(ctx context.Context, path, model string, input []float32) (*InferResponse, error) {
	body := make([]byte, 4*len(input))
	for i, v := range input {
		binary.LittleEndian.PutUint32(body[4*i:], math.Float32bits(v))
	}
	var out InferResponse
	if err := c.do(ctx, http.MethodPost, path, model, body, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Model fetches the default model's metadata (v1 shorthand for ModelInfo
// with the default model's name).
func (c *Client) Model(ctx context.Context) (*ModelInfo, error) {
	var out ModelInfo
	if err := c.do(ctx, http.MethodGet, "/v1/model", "", nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// ModelInfo fetches a named model's metadata.
func (c *Client) ModelInfo(ctx context.Context, model string) (*ModelInfo, error) {
	var out ModelInfo
	if err := c.do(ctx, http.MethodGet, modelPath(model, ""), model, nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Models lists every served model with version, checksum, plan coverage,
// and queue depth.
func (c *Client) Models(ctx context.Context) (*ModelList, error) {
	var out ModelList
	if err := c.do(ctx, http.MethodGet, "/v2/models", "", nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Stats fetches the default model's serving counters plus the fleet-level
// registry section (v1 shorthand; per-model counters live on ModelStats).
func (c *Client) Stats(ctx context.Context) (*Stats, error) {
	var out Stats
	if err := c.do(ctx, http.MethodGet, "/v1/stats", "", nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// ModelStats fetches one model's serving counters and swap history.
func (c *Client) ModelStats(ctx context.Context, model string) (*ModelStats, error) {
	var out ModelStats
	if err := c.do(ctx, http.MethodGet, modelPath(model, "/stats"), model, nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}
